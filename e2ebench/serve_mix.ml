(* serve_mix: the oracle daemon under an open loop.

   The daemon runs in its own process (this executable, re-executed with
   --daemon) with 8 cache slots and one executor per core.  Requests
   arrive at 25 per second whether or not earlier ones have finished,
   sent by one client connection per core; each latency is timed from
   the request's due time, so a stall also delays the requests queued
   behind it.  Four in five requests are warm, spread evenly over six
   hot programs; the fifth is cold, a middleblock with a size seen once,
   so the cache takes a write (miss, prepare, insert, evict) among the
   reads.  Fingerprinting, preparation, instantiation, the LRU and the
   wire do most of the work here; exploration is a few ms a request. *)

module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Wire = Serve.Wire
module Client = Serve.Client
open Common

let rate = 25.0
let cold_every = 5
let workdir = "_e2e"

(* ------------------------------------------------------------------ *)
(* The daemon process *)

let daemon sock =
  let cfg =
    {
      Serve.Server.default_config with
      Serve.Server.endpoint = Wire.Unix_sock sock;
      cache_slots = 8;
      workers = nproc ();
    }
  in
  let t = Serve.Server.create cfg in
  Serve.Server.accept_loop t;
  Serve.Server.join t;
  let gc = Gc.quick_stat () in
  Printf.printf
    "{\"vmhwm_mb\": %s, \"gc.minor_words\": %s, \"gc.major_collections\": %d, \"gc.top_heap_mb\": %s, \"serve\": %s}\n%!"
    (Json.num (self_peak_rss_mb ()))
    (Json.num gc.Gc.minor_words) gc.Gc.major_collections
    (Json.num (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0))
    (Obs.Snapshot.to_json (Serve.Server.snapshot t))

type daemon = { pid : int; out : Unix.file_descr; ep : Wire.endpoint }

(* daemons still running; killed and reaped if the bench exits early *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn sock =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--daemon"; sock |] Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  { pid; out = r; ep = Wire.Unix_sock sock }

(* shut the daemon down and return its final report *)
let stop d =
  ignore (Client.request d.ep { Wire.default_request with Wire.rq_op = Wire.Shutdown });
  let ic = Unix.in_channel_of_descr d.out in
  let report = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live;
  Json.parse (String.trim report)

(* ------------------------------------------------------------------ *)
(* The request mix *)

type req = { label : string; arch : string; src : string; max_tests : int; rseed : int; backend : string }

(* hot programs and their budgets: large middleblocks asking for one
   test (front end and wire dominate), and three programs asking for
   tens of tests (exploration shows) *)
let hot_programs () =
  let mb a = Progzoo.Generators.middleblock ~acl_stages:a () in
  [|
    ("middleblock_128acl", "v1model", mb 128, 1);
    ("middleblock_400acl", "v1model", mb 400, 1);
    ("middleblock_800acl", "v1model", mb 800, 1);
    ("middleblock_2acl", "v1model", mb 2, 50);
    ("up4", "v1model", Progzoo.Generators.up4 (), 20);
    ("switch4_tna", "tna", Progzoo.Generators.switch_tna ~stages:4 (), 20);
  |]

(* The mix is fixed by the request count: exact shares of hot and cold
   requests, cold sizes spread evenly over [16, 512] ACL stages (a size
   used by a hot program is skipped), and back ends in turn per program.
   The seed picks the order, the cold sizes' order, the arrival times,
   the oracle seeds and each program's first back end. *)
let plan ~seed ~seconds =
  let st = rng seed 2 in
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let n_cold = n / cold_every in
  let backends = Array.of_list (List.map (fun (b : Backends.Registry.t) -> b.name) Backends.Registry.all) in
  let nb = Array.length backends in
  let hot =
    Array.map
      (fun (label, arch, src, max_tests) ->
        { label; arch; src; max_tests; rseed = oracle_seed st; backend = backends.(Random.State.int st nb) })
      (hot_programs ())
  in
  let used = Hashtbl.create 128 in
  List.iter (fun a -> Hashtbl.replace used a ()) [ 128; 400 ];
  let sizes =
    Array.init n_cold (fun k ->
        let a = ref (16 + (k * 496 / max 1 (n_cold - 1))) in
        while Hashtbl.mem used !a do incr a done;
        Hashtbl.replace used !a ();
        !a)
  in
  let sizes = shuffle st sizes in
  let kinds = shuffle st (Array.init n (fun k -> if k < n_cold then `Cold k else `Hot (k mod Array.length hot))) in
  let due = Array.init n (fun _ -> Random.State.float st seconds) in
  Array.sort compare due;
  (* each hot program's back end in turn, from its seeded first one *)
  let turn = Array.map (fun r -> Option.get (Array.find_index (( = ) r.backend) backends)) hot in
  let reqs =
    Array.map
      (function
        | `Hot h ->
            turn.(h) <- turn.(h) + 1;
            { (hot.(h)) with backend = backends.(turn.(h) mod nb) }
        | `Cold k ->
            let a = sizes.(k) in
            {
              label = Printf.sprintf "cold_middleblock_%dacl" a;
              arch = "v1model";
              src = Progzoo.Generators.middleblock ~acl_stages:a ();
              max_tests = 1;
              rseed = oracle_seed st;
              backend = backends.(k mod nb);
            })
      kinds
  in
  (hot, reqs, due)

let wire_request r =
  {
    Wire.default_request with
    Wire.rq_arch = r.arch;
    rq_seed = r.rseed;
    rq_max_tests = Some r.max_tests;
    rq_backend = Some r.backend;
    rq_source = Some r.src;
  }

(* set-up: daemon spawn until it answers with every hot program primed *)
let setup ~sock hot =
  let t0 = now () in
  let d = spawn sock in
  if not (Client.wait_ready ~attempts:2000 ~delay:0.005 d.ep) then failwith "serve daemon did not come up";
  Array.iter
    (fun r ->
      match Client.request d.ep (wire_request r) with
      | Ok evs when Client.find_error evs = None -> ()
      | _ -> failwith ("serve daemon could not prime " ^ r.label))
    hot;
  (now () -. t0, d)

(* ------------------------------------------------------------------ *)

type response = { start : float; fin : float; events : (Wire.event list, string) result }

(* a response that passed its checks *)
type served = {
  due : float;
  resp : response;
  handler : float;  (** the daemon's own wall-clock for the request *)
  unattributed : float;  (** handler time outside prepare, explore and the back end *)
  hit : bool;
  coverage : float;
}

let run ~workload ~seed ~seconds ~traced ~trace_dir =
  mkdir_p workdir;
  let sock = Filename.concat workdir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let hot, reqs, due = plan ~seed ~seconds in
  let n = Array.length reqs in
  let setups =
    List.init 3 (fun k ->
        let dt, d = setup ~sock hot in
        if k < 2 then ignore (stop d);
        (dt, d))
  in
  let setup_s = median (List.map fst setups) in
  let d = snd (List.nth setups 2) in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let clients = nproc () in
  let regs = Array.init clients (fun _ -> Obs.Registry.create ()) in
  (* time spent in span bookkeeping, per client *)
  let span_cost = Array.make clients 0.0 in
  let t0 = now () +. 0.05 in
  let client c () =
    let rec loop () =
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        let wait = t0 +. due.(k) -. now () in
        if wait > 0.0 then Unix.sleepf wait;
        let rq = wire_request reqs.(k) in
        let start = now () in
        let events =
          if traced then begin
            let inner = ref 0.0 in
            let events =
              Obs.Span.with_ regs.(c)
                ~args:[ ("workload", workload); ("request", string_of_int k); ("program", reqs.(k).label) ]
                "Serve.Client.request"
                (fun () ->
                  let i0 = now () in
                  let evs = Client.request d.ep rq in
                  inner := now () -. i0;
                  evs)
            in
            span_cost.(c) <- span_cost.(c) +. (now () -. start -. !inner);
            events
          end
          else Client.request d.ep rq
        in
        out.(k) <- Some { start; fin = now (); events };
        loop ()
      end
    in
    loop ()
  in
  let domains = List.init clients (fun c -> Domain.spawn (client c)) in
  List.iter Domain.join domains;
  let report = stop d in
  (* ---- checks, outside the timed window ---- *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* one local Oracle.generate per distinct request, its suite replayed
     on the simulator *)
  let references = Hashtbl.create 128 in
  let sim_prepare = ref 0.0 and sim_run = ref 0.0 in
  let reference r =
    let key = (r.label, r.rseed, r.max_tests) in
    match Hashtbl.find_opt references key with
    | Some v -> v
    | None ->
        let run =
          Oracle.generate
            ~opts:{ Testgen.Runtime.default_options with seed = r.rseed }
            ~config:{ Explore.default_config with Explore.max_tests = Some r.max_tests }
            (target_of r.arch) r.src
        in
        let tests = run.Oracle.result.Explore.tests in
        let front = Acc.create () in
        Layers.add_spans front (Oracle.registry run);
        let prep, run_s, bad = replay ~seed:r.rseed ~arch:r.arch r.src tests in
        sim_prepare := !sim_prepare +. prep;
        sim_run := !sim_run +. run_s;
        let v = (tests, bad, front) in
        Hashtbl.add references key v;
        v
  in
  let acc = Acc.create () in
  let ok = ref [] in
  Array.iteri
    (fun k resp ->
      let r = reqs.(k) in
      match resp with
      | None -> fail "%s: request %d (%s) was never sent" workload k r.label
      | Some { events = Error msg; _ } -> fail "%s: request %d (%s): %s" workload k r.label msg
      | Some ({ events = Ok evs; _ } as resp) -> (
          match (Client.find_error evs, Client.find_summary evs) with
          | Some (kind, msg), _ -> fail "%s: request %d (%s): %s error: %s" workload k r.label kind msg
          | None, None -> fail "%s: request %d (%s): no summary frame" workload k r.label
          | None, Some summary ->
              let bodies = List.filter_map (function Wire.Test (_, b) -> Some b | _ -> None) evs in
              let file = List.find_map (function Wire.File (_, body) -> Some body | _ -> None) evs in
              let tests, bad, front = reference r in
              let be = Option.get (Backends.Registry.find r.backend) in
              if bodies <> List.map Testgen.Testspec.to_string tests then
                fail "%s: request %d (%s): tests differ from a local Oracle.generate" workload k r.label
              else if file <> Some (be.emit tests) then
                fail "%s: request %d (%s): %s file differs from a local render" workload k r.label r.backend
              else if bad > 0 then
                fail "%s: request %d (%s): %d tests fail on the simulator" workload k r.label bad
              else begin
                Acc.add acc "bench.emit_bytes" (float_of_int (String.length (Option.get file)));
                let num key =
                  Option.value ~default:0.0 (Option.bind (Client.summary_get summary key) float_of_string_opt)
                in
                (* the request's own registry; its serve.* entries are deltas
                   of the daemon-wide registry and overlap between requests *)
                let m = Acc.create () in
                List.iter
                  (function
                    | Wire.Obs j -> (
                        match Json.parse j with
                        | Json.Obj kvs ->
                            List.iter
                              (function
                                | name, Json.Num v when not (String.starts_with ~prefix:"serve." name) ->
                                    Acc.add m name v
                                | _ -> ())
                              kvs
                        | _ -> ())
                    | _ -> ())
                  evs;
                Hashtbl.iter (Acc.add acc) m;
                let hit = Client.summary_get summary "cache_hit" = Some "true" in
                (* a miss paid the front end that a local run of the same
                   source measures *)
                if not hit then begin
                  Acc.add acc "span.parse" (Acc.get front "span.parse");
                  Acc.add acc "span.passes" (Acc.get front "span.passes")
                end;
                let handler = num "wall_seconds" in
                ok :=
                  {
                    due = t0 +. due.(k);
                    resp;
                    handler;
                    unattributed =
                      handler -. num "prep_seconds" -. Acc.get m "explore.total_time"
                      -. Acc.get m "backend.emit_time";
                    hit;
                    coverage = num "coverage_pct";
                  }
                  :: !ok
              end))
    out;
  let ok = List.rev !ok in
  let failed = n - List.length ok in
  let lats = List.map (fun s -> 1e3 *. (s.resp.fin -. s.due)) ok in
  let tail = tail ~level:95 lats in
  let last = List.fold_left (fun a s -> Float.max a s.resp.fin) t0 ok in
  let peak_rss_mb = Json.to_num (Json.member "vmhwm_mb" report) in
  List.iter
    (fun k -> Hashtbl.replace acc k (Json.to_num (Json.member k report)))
    [ "gc.minor_words"; "gc.major_collections"; "gc.top_heap_mb" ];
  Printf.printf "# %s: %d requests (%d cold) at %.0f/s over %.1fs; latency tail p%d of n=%d (%d above)\n"
    workload n (n / cold_every) rate seconds tail.level tail.n tail.above;
  let e2e =
    [
      ("ops_per_s", float_of_int (List.length ok) /. (last -. t0));
      ("lat_p50_ms", median lats);
      ("lat_tail_ms", tail.value);
      ("setup_s", setup_s);
      ("peak_rss_mb", peak_rss_mb);
    ]
  in
  let layers =
    if not traced then []
    else begin
      let reg = Obs.Registry.create () in
      Layers.time_front_end acc reg (Array.to_list (Array.map (fun r -> (r.arch, r.src)) hot));
      Layers.add_spans acc reg;
      let tracks = ("checks", reg) :: Array.to_list (Array.mapi (fun c r -> (Printf.sprintf "client%d" c, r)) regs) in
      Layers.print_span_table workload tracks;
      Layers.write_trace trace_dir workload tracks;
      let serve_count key =
        match Json.member "serve" report with Some s -> Json.to_num (Json.member key s) | None -> 0.0
      in
      let ms f = List.map (fun s -> 1e3 *. f s) ok in
      let mean f = List.fold_left (fun a s -> a +. f s) 0.0 ok /. float_of_int (max 1 (List.length ok)) in
      Layers.print_diagnostics workload
        [
          ("serve.handler_ms", median (ms (fun s -> s.handler)), "ms");
          ("serve.outside_handler_ms", median (ms (fun s -> s.resp.fin -. s.resp.start -. s.handler)), "ms");
          ("serve.unattributed_ms", median (ms (fun s -> s.unattributed)), "ms");
          ("serve.gen_late_tail_ms", (Common.tail ~level:95 (ms (fun s -> s.resp.start -. s.due))).value, "ms");
        ];
      Layers.derive acc ~per:1.0
        ~specific:
          [
            ("sim.prepare_s", !sim_prepare);
            ("sim.run_suite_s", !sim_run);
            ("serve.cache_hit_ratio", mean (fun s -> if s.hit then 1.0 else 0.0));
            ("serve.evictions", serve_count "serve.cache_evictions");
            ("serve.busy_rejections", serve_count "serve.busy_rejections");
            ("explore.stmt_cov_pct", mean (fun s -> s.coverage));
            (* tracing adds only the client-side spans here, so their cost
               is measured directly rather than as a difference of two
               request mixes *)
            ( "trace.overhead_pct",
              100.0 *. Array.fold_left ( +. ) 0.0 span_cost
              /. List.fold_left (fun a s -> a +. (s.resp.fin -. s.resp.start)) 0.0 ok );
          ]
    end
  in
  { attempted = n; failed; failures = List.rev !failures; e2e; layers }
