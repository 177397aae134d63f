(* The oracle daemon: accept loop + executor domains around a
   fingerprint-keyed cache of prepared oracles.

   One connection carries one request and one streamed response (see
   [Wire]).  The accept loop never runs oracle work: it either enqueues
   the connection for an executor or rejects it with a `busy` frame
   when the queue is full.  Executor domains are paid for out of
   [Explore.Pool] — the same budget the batch runner and the selftest
   campaign draw from — so a serving process shares one domain budget
   with them.

   The cache holds [Oracle.prepared] values keyed by
   [Oracle.fingerprint].  A hit skips parsing, typing and the mid-end
   entirely; the request then explores a fresh deterministic replica
   ([Oracle.explore_prepared]), so its test set is bit-identical to a
   cold run of the same source with the same options.

   Shared mutable state (queue, cache, the serve.* metrics registry)
   is guarded by one mutex: every critical section is queue bookkeeping
   or a metric bump, never oracle work, so contention is noise next to
   a single solver call. *)

type config = {
  endpoint : Wire.endpoint;
  cache_slots : int;  (* prepared oracles kept warm *)
  workers : int;  (* executor domains wanted (pool may grant fewer) *)
  queue_cap : int;  (* admitted-but-unserved connections *)
  default_deadline_ms : int option;  (* per-request budget, from admission *)
}

let default_config =
  {
    endpoint = Wire.Unix_sock "p4testgen.sock";
    cache_slots = 8;
    workers = 2;
    queue_cap = 16;
    default_deadline_ms = None;
  }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  m : Mutex.t;
  cond : Condition.t;
  queue : (Unix.file_descr * float) Queue.t;  (* (conn, admission time) *)
  mutable stopping : bool;
  cache : Testgen.Oracle.prepared Lru.t;
  sreg : Obs.Registry.t;  (* serve.* metrics; touch under [m] only *)
  mutable executors : unit Domain.t list;
  mutable acceptor : unit Domain.t option;
  mutable pool_tokens : int;
  listen_closed : bool Atomic.t;
}

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* all sreg traffic goes through these, under the server mutex *)
let count t name =
  with_lock t (fun () -> Obs.Counter.incr (Obs.Registry.counter t.sreg name))

let timer_add t name secs =
  with_lock t (fun () -> Obs.Timer.add (Obs.Registry.timer t.sreg name) secs)

let set_queue_gauge_locked t =
  Obs.Gauge.set
    (Obs.Registry.gauge t.sreg "serve.queue_depth")
    (Queue.length t.queue)

let snapshot t = with_lock t (fun () -> Obs.Registry.snapshot t.sreg)

(* ------------------------------------------------------------------ *)
(* Request handling *)

let strategy_of_string = function
  | "dfs" -> Some Testgen.Explore.Dfs
  | "rnd" -> Some Testgen.Explore.Rnd
  | "cov" -> Some Testgen.Explore.Cov
  | _ -> None

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* a dead client mid-stream is that client's problem, not the server's:
   an I/O error on the write is counted and the stream goes on; any
   other exception reaches the request's error path *)
let send t fd ev =
  try Wire.write_event fd ev
  with Unix.Unix_error _ | Sys_error _ -> count t "serve.send_errors"

let fail t fd kind msg =
  send t fd (Wire.Error (kind, msg));
  send t fd Wire.End

let bool_str b = if b then "true" else "false"

let handle_generate t fd ~admitted (rq : Wire.request) =
  let module O = Testgen.Oracle in
  let t0 = Obs.Clock.now () in
  match Targets.Registry.find rq.rq_arch with
  | None -> fail t fd "protocol" ("unknown target " ^ rq.rq_arch)
  | Some target -> (
      match strategy_of_string rq.rq_strategy with
      | None -> fail t fd "protocol" ("unknown strategy " ^ rq.rq_strategy)
      | Some strategy -> (
          let key =
            match rq.rq_key with
            | Some k -> Ok k
            | None -> (
                match rq.rq_source with
                | None ->
                    Error
                      (`Protocol "generate needs a source body or a fingerprint")
                | Some src -> (
                    match O.fingerprint ~arch:rq.rq_arch src with
                    | Ok k -> Ok k
                    | Error e -> Error (`Prepare e)))
          in
          match key with
          | Error (`Protocol msg) -> fail t fd "protocol" msg
          | Error (`Prepare e) ->
              fail t fd (O.prepare_error_kind e) (O.prepare_error_message e)
          | Ok key -> (
              let rreg = Obs.Registry.create () in
              (* baseline of the daemon-wide serve.* registry: the
                 response reports this request's delta, not counters
                 accumulated since the daemon started *)
              let s0 = snapshot t in
              let cached = with_lock t (fun () -> Lru.find t.cache key) in
              let prepared =
                match cached with
                | Some p ->
                    count t "serve.cache_hits";
                    Ok (p, true, 0.0)
                | None -> (
                    count t "serve.cache_misses";
                    match rq.rq_source with
                    | None -> Error (`Unknown key)
                    | Some src -> (
                        let p0 = Obs.Clock.now () in
                        (* prepare outside the lock: concurrent misses may
                           duplicate work, but never serialize on it *)
                        match O.prepare_result ~obs:rreg target src with
                        | Error e -> Error (`Prepare e)
                        | Ok p ->
                            let dt = Obs.Clock.now () -. p0 in
                            timer_add t "serve.prepare_time" dt;
                            with_lock t (fun () ->
                                match Lru.put t.cache key p with
                                | None -> ()
                                | Some _ ->
                                    Obs.Counter.incr
                                      (Obs.Registry.counter t.sreg
                                         "serve.cache_evictions"));
                            Ok (p, false, dt)))
              in
              match prepared with
              | Error (`Unknown key) ->
                  count t "serve.errors";
                  fail t fd "unknown-fingerprint"
                    ("no cached oracle for " ^ key ^ "; resend with the source")
              | Error (`Prepare e) ->
                  count t "serve.errors";
                  fail t fd (O.prepare_error_kind e) (O.prepare_error_message e)
              | Ok (prepared, cache_hit, prep_seconds) -> (
                  let opts =
                    {
                      Testgen.Runtime.default_options with
                      seed = rq.rq_seed;
                      seq_packets = rq.rq_seq_packets;
                    }
                  in
                  let deadline_ms =
                    match rq.rq_deadline_ms with
                    | Some _ as d -> d
                    | None -> t.cfg.default_deadline_ms
                  in
                  let deadline =
                    Option.map
                      (fun ms -> admitted +. (float_of_int ms /. 1000.))
                      deadline_ms
                  in
                  let nstreamed = ref 0 in
                  let on_test spec =
                    incr nstreamed;
                    send t fd
                      (Wire.Test (!nstreamed, Testgen.Testspec.to_string spec))
                  in
                  let config =
                    {
                      Testgen.Explore.default_config with
                      max_tests = rq.rq_max_tests;
                      max_paths = rq.rq_max_paths;
                      strategy;
                      on_test = Some on_test;
                      deadline;
                    }
                  in
                  match O.explore_prepared ~opts ~config ~obs:rreg prepared with
                  | exception e ->
                      count t "serve.errors";
                      fail t fd "exec" (Printexc.to_string e)
                  | run ->
                      let result = run.O.result in
                      let tests = result.Testgen.Explore.tests in
                      (match rq.rq_backend with
                      | None -> ()
                      | Some be_name -> (
                          match Backends.Registry.find be_name with
                          | None ->
                              send t fd
                                (Wire.Error
                                   ("protocol", "unknown back end " ^ be_name))
                          | Some be ->
                              send t fd
                                (Wire.File
                                   ( be_name,
                                     Backends.Registry.emit_observed ~obs:rreg
                                       be tests ))));
                      let cov = O.coverage_report run in
                      let wall = Obs.Clock.now () -. t0 in
                      let timed_out =
                        match deadline with
                        | Some d -> Obs.Clock.now () > d
                        | None -> false
                      in
                      send t fd
                        (Wire.Summary
                           [
                             ("tests", string_of_int (List.length tests));
                             ( "paths",
                               string_of_int
                                 result.Testgen.Explore.stats
                                   .Testgen.Explore.paths );
                             ( "coverage_pct",
                               Printf.sprintf "%.2f" cov.O.percentage );
                             ("cache_hit", bool_str cache_hit);
                             ("prep_seconds", Printf.sprintf "%.6f" prep_seconds);
                             ("wall_seconds", Printf.sprintf "%.6f" wall);
                             ("fingerprint", key);
                             ("timed_out", bool_str timed_out);
                           ]);
                      send t fd
                        (Wire.Obs
                           (Obs.Snapshot.to_json
                              (Obs.Snapshot.merge
                                 (Obs.Registry.snapshot rreg)
                                 (Obs.Snapshot.diff (snapshot t) s0))));
                      send t fd Wire.End))))

let close_listener t =
  if not (Atomic.exchange t.listen_closed true) then close_quiet t.listen_fd

let begin_shutdown t =
  with_lock t (fun () ->
      t.stopping <- true;
      Condition.broadcast t.cond);
  (* a blocked accept(2) is not reliably interrupted by another domain
     closing the listener, so poke the acceptor awake with a throwaway
     self-connection; it re-checks [stopping] per accepted connection *)
  try
    let domain =
      match t.cfg.endpoint with
      | Wire.Unix_sock _ -> Unix.PF_UNIX
      | Wire.Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> close_quiet fd)
      (fun () -> Unix.connect fd (Wire.sockaddr_of_endpoint t.cfg.endpoint))
  with Unix.Unix_error _ -> close_listener t

let handle_connection t (fd, admitted) =
  let module O = Testgen.Oracle in
  count t "serve.requests";
  let finish () = close_quiet fd in
  Fun.protect ~finally:finish (fun () ->
      match
        let r0 = Obs.Clock.now () in
        Fun.protect
          ~finally:(fun () -> timer_add t "serve.request_time" (Obs.Clock.now () -. r0))
          (fun () ->
            match Wire.read_frame fd with
            | None -> ()
            | Some payload -> (
                match Wire.decode_request payload with
                | Error msg -> fail t fd "protocol" msg
                | Ok rq -> (
                    match rq.Wire.rq_op with
                    | Wire.Ping ->
                        send t fd (Wire.Okay "pong");
                        send t fd Wire.End
                    | Wire.Flush ->
                        with_lock t (fun () -> Lru.clear t.cache);
                        count t "serve.flushes";
                        send t fd (Wire.Okay "flushed");
                        send t fd Wire.End
                    | Wire.Shutdown ->
                        send t fd (Wire.Okay "stopping");
                        send t fd Wire.End;
                        begin_shutdown t
                    | Wire.Fingerprint -> (
                        match rq.Wire.rq_source with
                        | None -> fail t fd "protocol" "fingerprint needs a source body"
                        | Some src -> (
                            match O.fingerprint ~arch:rq.Wire.rq_arch src with
                            | Ok key ->
                                send t fd (Wire.Okay key);
                                send t fd Wire.End
                            | Error e ->
                                fail t fd (O.prepare_error_kind e)
                                  (O.prepare_error_message e)))
                    | Wire.Generate -> handle_generate t fd ~admitted rq)))
      with
      | () -> ()
      | exception Wire.Protocol_error _ -> ()  (* client went away *)
      | exception Unix.Unix_error _ -> ()
      | exception e ->
          count t "serve.errors";
          fail t fd "exec" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Executors and the accept loop *)

let executor_loop t =
  let rec next () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.cond t.m
    done;
    if Queue.is_empty t.queue then begin
      Mutex.unlock t.m;
      ()  (* stopping with a drained queue *)
    end
    else begin
      let conn = Queue.pop t.queue in
      set_queue_gauge_locked t;
      Mutex.unlock t.m;
      handle_connection t conn;
      next ()
    end
  in
  next ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()  (* listener closed: shutting down *)
    | fd, _ ->
        let admitted = Obs.Clock.now () in
        let enqueued =
          with_lock t (fun () ->
              if t.stopping then `Stopping
              else if Queue.length t.queue >= t.cfg.queue_cap then begin
                Obs.Counter.incr
                  (Obs.Registry.counter t.sreg "serve.busy_rejections");
                `Busy
              end
              else begin
                Queue.push (fd, admitted) t.queue;
                set_queue_gauge_locked t;
                Condition.signal t.cond;
                `Queued
              end)
        in
        (match enqueued with
        | `Queued -> ()
        | `Busy ->
            fail t fd "busy" "request queue full, retry later";
            close_quiet fd
        | `Stopping ->
            fail t fd "shutdown" "server is stopping";
            close_quiet fd);
        if with_lock t (fun () -> t.stopping) then () else loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let listen_socket (ep : Wire.endpoint) =
  let domain, addr =
    match ep with
    | Wire.Unix_sock path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Wire.Tcp _ -> (Unix.PF_INET, Wire.sockaddr_of_endpoint ep)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt fd Unix.SO_REUSEADDR true
   with Unix.Unix_error _ -> ());
  Unix.bind fd addr;
  Unix.listen fd 64;
  fd

let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> (
      try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ()

let create (cfg : config) : t =
  ignore_sigpipe ();
  let listen_fd = listen_socket cfg.endpoint in
  let t =
    {
      cfg;
      listen_fd;
      m = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      cache = Lru.create ~cap:(max 1 cfg.cache_slots);
      sreg = Obs.Registry.create ();
      executors = [];
      acceptor = None;
      pool_tokens = 0;
      listen_closed = Atomic.make false;
    }
  in
  (* intern the full metric set so a snapshot of an idle server already
     names everything the smoke tests grep for *)
  List.iter
    (fun n -> ignore (Obs.Registry.counter t.sreg n))
    [
      "serve.requests"; "serve.cache_hits"; "serve.cache_misses";
      "serve.cache_evictions"; "serve.busy_rejections"; "serve.errors";
      "serve.flushes"; "serve.send_errors";
    ];
  ignore (Obs.Registry.gauge t.sreg "serve.queue_depth");
  ignore (Obs.Registry.timer t.sreg "serve.prepare_time");
  ignore (Obs.Registry.timer t.sreg "serve.request_time");
  let wanted = max 1 cfg.workers in
  (* executor domains draw on the shared exploration budget; at least
     one executor runs even when the pool is exhausted, or the daemon
     could not serve at all *)
  let granted = Testgen.Explore.Pool.acquire wanted in
  t.pool_tokens <- granted;
  let n = max 1 granted in
  t.executors <- List.init n (fun _ -> Domain.spawn (fun () -> executor_loop t));
  t

let join (t : t) =
  (match t.acceptor with Some d -> Domain.join d | None -> ());
  t.acceptor <- None;
  List.iter Domain.join t.executors;
  t.executors <- [];
  (* reject whatever was admitted but never served *)
  Queue.iter
    (fun (fd, _) ->
      fail t fd "shutdown" "server is stopping";
      close_quiet fd)
    t.queue;
  Queue.clear t.queue;
  Testgen.Explore.Pool.release t.pool_tokens;
  t.pool_tokens <- 0;
  close_listener t;
  match t.cfg.endpoint with
  | Wire.Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Wire.Tcp _ -> ()

let start (cfg : config) : t =
  let t = create cfg in
  t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let stop (t : t) =
  begin_shutdown t;
  join t

(* blocking entry point for the CLI: serve until a shutdown request *)
let run (cfg : config) =
  let t = create cfg in
  accept_loop t;
  join t
