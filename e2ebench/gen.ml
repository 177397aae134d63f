(* gen_large and gen_parallel: closed-loop test generation with one
   client, the paper's Tbl. 4a shape.  A round runs Oracle.generate and
   a back end on each of six programs; rounds repeat until the run's
   time is up.  gen_large uses the sequential explorer (path_jobs 0),
   gen_parallel the frontier driver with one worker per core, so an
   explorer change shows on both drivers. *)

module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Registry = Backends.Registry
open Common

type prog = { label : string; arch : string; src : string; cap : int option }

(* Both ends of the size range the workload names: middleblock with 2
   and 8 ACL stages capped at 400 tests, middleblock with 2 ACLs in full
   (462 tests), switch_tna with 4 and 8 stages capped at 400, and up4
   in full.  A round is the same set of programs every time, so its
   tests per second compare between rounds, runs and seeds. *)
let programs () =
  let mb a = Progzoo.Generators.middleblock ~acl_stages:a () in
  let sw s = Progzoo.Generators.switch_tna ~stages:s () in
  [|
    { label = "middleblock_2acl_cap400"; arch = "v1model"; src = mb 2; cap = Some 400 };
    { label = "middleblock_8acl_cap400"; arch = "v1model"; src = mb 8; cap = Some 400 };
    { label = "middleblock_2acl_full"; arch = "v1model"; src = mb 2; cap = None };
    { label = "switch4_tna_cap400"; arch = "tna"; src = sw 4; cap = Some 400 };
    { label = "switch8_tna_cap400"; arch = "tna"; src = sw 8; cap = Some 400 };
    { label = "up4_full"; arch = "v1model"; src = Progzoo.Generators.up4 (); cap = None };
  |]

(* The seed picks each program's oracle seed (fixed for the run, so
   every round must emit the same suite), the back end each program
   starts with (it then rotates, so every back end renders every program
   equally often) and the program order of each round. *)
type job = { prog : prog; seed : int; be_offset : int }

let plan seed =
  let st = rng seed 1 in
  Array.map (fun prog -> { prog; seed = oracle_seed st; be_offset = Random.State.int st 3 }) (programs ())

let round_order seed r n = shuffle (rng seed (1000 + r)) (Array.init n Fun.id)
let backend job r = List.nth Registry.all ((job.be_offset + r) mod List.length Registry.all)
let opts job = { Testgen.Runtime.default_options with seed = job.seed }

let config ~path_jobs job =
  { Explore.default_config with Explore.max_tests = job.prog.cap; path_jobs }

(* one job's outputs, kept for the checks after the timed window *)
type sample = {
  job : int;
  round : int;
  traced : bool;
  be : string;
  secs : float;
  ntests : int;
  digest : string;
  file_digest : string;
}

let guard job f =
  try f () with e -> failwith (Printf.sprintf "%s: %s" job.prog.label (Printexc.to_string e))

let run_untraced ~path_jobs job (be : Registry.t) =
  guard job (fun () ->
      let t0 = now () in
      let run =
        Oracle.generate ~opts:(opts job) ~config:(config ~path_jobs job) (target_of job.prog.arch)
          job.prog.src
      in
      let file = be.emit run.Oracle.result.Explore.tests in
      (now () -. t0, run, file))

(* the same job with a span around each public call; prepare plus
   explore_prepared emits the same suite as generate *)
let run_traced reg ~args ~path_jobs job (be : Registry.t) =
  guard job (fun () ->
      let opts = opts job in
      let t0 = now () in
      let run, file =
        Obs.Span.with_ reg ~args "job" (fun () ->
            let p =
              Obs.Span.with_ reg "Oracle.prepare" (fun () ->
                  Oracle.prepare ~opts ~obs:reg (target_of job.prog.arch) job.prog.src)
            in
            let run =
              Obs.Span.with_ reg "Oracle.explore_prepared" (fun () ->
                  Oracle.explore_prepared ~opts ~config:(config ~path_jobs job) ~obs:reg p)
            in
            let file =
              Obs.Span.with_ reg "Backends.Registry.emit_observed" (fun () ->
                  Registry.emit_observed ~obs:reg be run.Oracle.result.Explore.tests)
            in
            (run, file))
      in
      (now () -. t0, run, file))

(* set-up: build the sources and the plan, then one untimed generate per
   program with max_tests 1 *)
let setup ~seed ~path_jobs () =
  let jobs = plan seed in
  Array.iter
    (fun job ->
      ignore
        (guard job (fun () ->
             Oracle.generate ~opts:(opts job)
               ~config:{ (config ~path_jobs job) with Explore.max_tests = Some 1 }
               (target_of job.prog.arch) job.prog.src)))
    jobs;
  jobs

let run ~workload ~path_jobs ~seed ~seconds ~traced ~trace_dir =
  let setups = List.init 3 (fun _ -> let t0 = now () in let jobs = setup ~seed ~path_jobs () in (now () -. t0, jobs)) in
  let setup_s = median (List.map fst setups) and jobs = snd (List.hd setups) in
  let n = Array.length jobs in
  let reg = Obs.Registry.create () in
  let acc = Acc.create () in
  let first_tests = Array.make n [] in
  let samples = ref [] in
  (* per round: (traced, tests, seconds) *)
  let rounds = ref [] in
  let t_end = now () +. seconds in
  let min_rounds = if traced then 2 else 1 in
  let r = ref 0 in
  while !r < min_rounds || now () < t_end do
    (* a traced run alternates traced and untraced rounds, so the
       tracing overhead is measured on the same inputs *)
    let round_traced = traced && !r mod 2 = 1 in
    let tests = ref 0 and secs = ref 0.0 in
    let round () =
      Array.iter
        (fun j ->
          let job = jobs.(j) and be = backend jobs.(j) !r in
          let dt, run, file =
            if round_traced then
              let args = [ ("workload", workload); ("round", string_of_int !r); ("job", job.prog.label) ] in
              run_traced reg ~args ~path_jobs job be
            else run_untraced ~path_jobs job be
          in
          let result = run.Oracle.result in
          let ts = result.Explore.tests in
          let nt = List.length ts in
          if !r = 0 then first_tests.(j) <- ts;
          if round_traced then begin
            Acc.add acc "bench.emit_bytes" (float_of_int (String.length file));
            Acc.add acc "bench.covered" (float_of_int (Testgen.Runtime.IntSet.cardinal result.Explore.covered));
            Acc.add acc "bench.stmts" (float_of_int result.Explore.total_stmts)
          end;
          tests := !tests + nt;
          secs := !secs +. dt;
          samples :=
            {
              job = j;
              round = !r;
              traced = round_traced;
              be = be.name;
              secs = dt;
              ntests = nt;
              digest = suite_digest ts;
              file_digest = Digest.to_hex (Digest.string file);
            }
            :: !samples)
        (round_order seed !r n)
    in
    if round_traced then Layers.gc_measured acc round else round ();
    Printf.printf "# %s round %d%s: %d tests in %.3fs\n%!" workload !r
      (if round_traced then " (traced)" else "") !tests !secs;
    rounds := (round_traced, !tests, !secs) :: !rounds;
    incr r
  done;
  let peak_rss_mb = self_peak_rss_mb () in
  let samples = List.rev !samples and rounds = List.rev !rounds in
  (* ---- checks, outside the timed window ---- *)
  let failures = ref [] and failed = ref 0 in
  let fail ntests fmt =
    Printf.ksprintf (fun m -> failures := m :: !failures; failed := !failed + ntests) fmt
  in
  let reference = Array.make n None and files = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let label = jobs.(s.job).prog.label in
      (match reference.(s.job) with
      | None -> reference.(s.job) <- Some s.digest
      | Some d when d <> s.digest ->
          fail s.ntests "%s: %s round %d emitted a suite that differs from round 0" workload label s.round
      | Some _ -> ());
      match Hashtbl.find_opt files (s.job, s.be) with
      | None -> Hashtbl.add files (s.job, s.be) s.file_digest
      | Some d when d <> s.file_digest ->
          fail s.ntests "%s: %s round %d rendered a different %s file" workload label s.round s.be
      | Some _ -> ())
    samples;
  let occurrences j = List.length (List.filter (fun s -> s.job = j) samples) in
  let sim_prepare = ref 0.0 and sim_run = ref 0.0 in
  Array.iteri
    (fun j job ->
      (* every distinct suite replayed on the independent simulator *)
      let prep, run_s, bad = replay ~seed:job.seed ~arch:job.prog.arch job.prog.src first_tests.(j) in
      sim_prepare := !sim_prepare +. prep;
      sim_run := !sim_run +. run_s;
      if bad > 0 then
        fail (bad * occurrences j) "%s: %s: %d of %d tests fail on the simulator" workload
          job.prog.label bad (List.length first_tests.(j));
      (* the frontier driver must emit the path_jobs 1 suite *)
      if path_jobs >= 1 then begin
        let ref1 =
          guard job (fun () ->
              Oracle.generate ~opts:(opts job) ~config:(config ~path_jobs:1 job)
                (target_of job.prog.arch) job.prog.src)
        in
        if Some (suite_digest ref1.Oracle.result.Explore.tests) <> reference.(j) then
          fail
            (List.length first_tests.(j) * occurrences j)
            "%s: %s: suite differs from the path_jobs 1 reference" workload job.prog.label
      end)
    jobs;
  (* ---- metrics ---- *)
  let untraced_rounds = List.filter (fun (t, _, _) -> not t) rounds in
  let rate (_, tests, secs) = float_of_int tests /. secs in
  let job_ms = List.filter_map (fun s -> if s.traced then None else Some (1e3 *. s.secs)) samples in
  let tail = tail ~level:75 job_ms in
  let attempted = List.fold_left (fun a s -> a + s.ntests) 0 samples in
  Printf.printf "# %s: %d rounds, %d jobs, %d tests; latency tail p%d of n=%d (%d above)\n"
    workload (List.length rounds) (List.length samples) attempted tail.level tail.n tail.above;
  let e2e =
    [
      ("ops_per_s", median (List.map rate untraced_rounds));
      ("lat_p50_ms", median job_ms);
      ("lat_tail_ms", tail.value);
      ("setup_s", setup_s);
      ("peak_rss_mb", peak_rss_mb);
    ]
  in
  let layers =
    if not traced then []
    else begin
      let traced_rounds = List.filter (fun (t, _, _) -> t) rounds in
      Layers.time_front_end acc reg
        (Array.to_list (Array.map (fun j -> (j.prog.arch, j.prog.src)) jobs));
      Layers.add_spans acc reg;
      Acc.add_snapshot acc (Obs.Registry.snapshot reg);
      let tracks = [ (workload, reg) ] in
      Layers.print_span_table workload tracks;
      Layers.write_trace trace_dir workload tracks;
      let per = float_of_int (max 1 (List.length traced_rounds)) in
      let covered = Acc.get acc "bench.covered" and stmts = Acc.get acc "bench.stmts" in
      Layers.print_diagnostics workload
        [
          ("explore.snapshot_restore_s", Acc.get acc "explore.t_snapshot_restore" /. per, "s");
          ("trace.span_coverage_pct", Layers.span_coverage_pct tracks ~op:"job", "%");
        ];
      Layers.derive acc ~per
        ~specific:
          [
            ("sim.prepare_s", !sim_prepare);
            ("sim.run_suite_s", !sim_run);
            ("explore.stmt_cov_pct", if stmts > 0.0 then 100.0 *. covered /. stmts else 0.0);
            ( "trace.overhead_pct",
              100.0
              *. ((median (List.map rate untraced_rounds) /. median (List.map rate traced_rounds)) -. 1.0) );
          ]
    end
  in
  { attempted; failed = !failed; failures = List.rev !failures; e2e; layers }
