(* p4testgen — command-line front end of the test oracle.

   Mirrors the upstream tool's interface: a P4 program, a target
   identifier, and a test framework; produces a test file plus a
   statement-coverage report (§4). *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let list_targets () =
  print_endline "Available targets and their test back ends:";
  List.iter
    (fun (arch, (device, backends)) ->
      Printf.printf "  %-12s (device: %-12s back ends: %s)\n" arch device
        (String.concat ", " backends))
    Targets.Registry.capabilities

(* shared by generate and batch: print a registry/merged snapshot and
   write the Chrome trace file *)
let report_obs ~metrics ~trace (tracks : (string * Obs.Registry.t) list) =
  if metrics then begin
    print_endline "metrics:";
    List.iter
      (fun (label, reg) ->
        if List.length tracks > 1 then Printf.printf "-- %s\n" label;
        Format.printf "%a@?" Obs.Snapshot.pp (Obs.Registry.snapshot reg))
      tracks
  end;
  match trace with
  | None -> 0
  | Some f -> (
      try
        Out_channel.with_open_text f (fun oc -> Obs.Trace.write_chrome oc tracks);
        Printf.printf "wrote trace %s (load in about:tracing or ui.perfetto.dev)\n" f;
        0
      with Sys_error msg ->
        Printf.eprintf "error: cannot write trace: %s\n" msg;
        1)

let run_generate file target backend max_tests max_paths strategy opts out_file validate
    print_tests metrics trace verbose =
  setup_logs verbose;
  match Targets.Registry.find target with
  | None ->
      Printf.eprintf "error: unknown target %s\n" target;
      list_targets ();
      1
  | Some tgt -> (
      match Backends.Registry.find backend with
      | None ->
          Printf.eprintf "error: unknown back end %s (stf, ptf, protobuf)\n" backend;
          1
      | Some be -> (
          let source = In_channel.with_open_text file In_channel.input_all in
          let config =
            { Testgen.Explore.default_config with max_tests; max_paths; strategy }
          in
          (* the same front door as serve: every front-end failure comes
             back as data, then the prepared program is explored into
             the same registry *)
          let reg = Obs.Registry.create () in
          match Testgen.Oracle.prepare_result ~obs:reg tgt source with
          | Error (Testgen.Oracle.Parse_error _ as e) ->
              Printf.eprintf "%s:%s\n" file (Testgen.Oracle.prepare_error_message e);
              1
          | Error e ->
              Printf.eprintf "error: %s\n" (Testgen.Oracle.prepare_error_message e);
              1
          | Ok prepared ->
              let run = Testgen.Oracle.explore_prepared ~opts ~config ~obs:reg prepared in
              let result = run.Testgen.Oracle.result in
              let tests = result.Testgen.Explore.tests in
              let stats = result.Testgen.Explore.stats in
              Printf.printf "generated %d tests (%d paths, %d infeasible, %d abandoned)\n"
                (List.length tests) stats.Testgen.Explore.paths
                stats.Testgen.Explore.infeasible stats.Testgen.Explore.abandoned;
              let cov = Testgen.Oracle.coverage_report run in
              Format.printf "%a@." Testgen.Oracle.pp_coverage cov;
              Printf.printf "timing: %.3fs total (%.3fs solver, %d checks)\n"
                result.Testgen.Explore.total_time result.Testgen.Explore.solve_time
                stats.Testgen.Explore.solver_checks;
              if print_tests then
                List.iter (fun t -> print_endline (Testgen.Testspec.to_string t)) tests;
              let out =
                match out_file with
                | Some f -> f
                | None -> Filename.remove_extension file ^ be.Backends.Registry.extension
              in
              Out_channel.with_open_text out (fun oc ->
                  Out_channel.output_string oc
                    (Backends.Registry.emit_observed ~obs:reg be tests));
              Printf.printf "wrote %s\n" out;
              let rc =
                if validate then
                  Obs.Span.with_ reg "validate" (fun () ->
                      let sim = Sim.Harness.prepare ~arch:target source in
                      let summary, results = Sim.Harness.run_suite sim tests in
                      Printf.printf "validation on the %s software model: %d/%d pass\n"
                        target summary.Sim.Harness.passed summary.Sim.Harness.total;
                      List.iter
                        (fun (t, v) ->
                          match v with
                          | Sim.Harness.Pass -> ()
                          | Sim.Harness.Wrong_output m ->
                              Printf.printf "  WRONG: %s\n    %s\n" m
                                (Testgen.Testspec.to_string t)
                          | Sim.Harness.Crash m -> Printf.printf "  CRASH: %s\n" m)
                        results;
                      if summary.Sim.Harness.passed <> summary.Sim.Harness.total then 2
                      else 0)
                else 0
              in
              let obs_rc = report_obs ~metrics ~trace [ (file, reg) ] in
              if rc <> 0 then rc else obs_rc))

let file =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"PROGRAM.p4" ~doc:"P4 program")

let target =
  Arg.(
    value & opt string "v1model"
    & info [ "t"; "target"; "arch" ] ~docv:"TARGET"
        ~doc:"Target architecture (v1model, tna, t2na, ebpf_model)")

let backend =
  Arg.(
    value & opt string "stf"
    & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc:"Test back end (stf, ptf, protobuf)")

let max_tests =
  Arg.(value & opt (some int) None & info [ "max-tests" ] ~doc:"Stop after N tests")

let max_paths =
  Arg.(value & opt (some int) None & info [ "max-paths" ] ~doc:"Stop after N explored paths")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")

let strategy =
  (* an enum: an unknown strategy is a CLI error, not a silent dfs *)
  let strategies =
    [ ("dfs", Testgen.Explore.Dfs); ("rnd", Testgen.Explore.Rnd); ("cov", Testgen.Explore.Cov) ]
  in
  Arg.(
    value
    & opt (enum strategies) Testgen.Explore.Dfs
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Path selection: $(b,dfs) (exhaustive), $(b,rnd) (random order), $(b,cov) \
           (DFS order, keeps only tests that add statement coverage and stops at full \
           coverage)")

let fixed_size =
  Arg.(
    value & opt (some int) None
    & info [ "fixed-packet-size" ] ~docv:"BYTES"
        ~doc:"Precondition: fix the input packet size (avoids parser rejects, Tbl. 4b)")

let no_constraints =
  Arg.(value & flag & info [ "no-constraints" ] ~doc:"Ignore @entry_restriction annotations")

let no_random =
  Arg.(value & flag & info [ "no-random" ] ~doc:"Do not randomize free test inputs")

let unroll =
  Arg.(value & opt int 3 & info [ "unroll" ] ~doc:"Parser loop unrolling bound")

let seq_packets =
  Arg.(
    value & opt int 1
    & info [ "seq-packets" ] ~docv:"N"
        ~doc:
          "Packets per generated test.  With $(docv) > 1 every test is an \
           ordered multi-packet sequence: stateful externs (registers) keep \
           their value between the packets, so later packets can depend on \
           state the earlier ones wrote.  The default 1 keeps the classic \
           single-packet tests")

let out_file = Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc:"Output file")

let validate =
  Arg.(
    value & flag
    & info [ "validate" ] ~doc:"Execute the generated tests on the built-in software model")

let print_tests =
  Arg.(value & flag & info [ "print-tests" ] ~doc:"Print the abstract test specifications")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the run's metric registry (counters, gauges, timers) after the run")

let trace =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's spans and counters as a Chrome $(b,trace_event) JSON file, \
           loadable in about:tracing or ui.perfetto.dev")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging")

(* the run options of generate and batch, built once from their flags *)
let opts =
  let make seed fixed_packet_bytes no_constraints no_random unroll_bound seq_packets =
    {
      Testgen.Runtime.unroll_bound;
      fixed_packet_bytes;
      apply_constraints = not no_constraints;
      randomize = not no_random;
      seed;
      seq_packets;
    }
  in
  Term.(const make $ seed $ fixed_size $ no_constraints $ no_random $ unroll $ seq_packets)

let generate_t =
  Term.(
    const run_generate $ file $ target $ backend $ max_tests $ max_paths $ strategy $ opts
    $ out_file $ validate $ print_tests $ metrics $ trace $ verbose)

(* ------------------------------------------------------------------ *)
(* batch: many programs across domains *)

let run_batch files target jobs max_tests max_paths strategy opts metrics trace verbose =
  setup_logs verbose;
  match Targets.Registry.find target with
  | None ->
      Printf.eprintf "error: unknown target %s\n" target;
      list_targets ();
      1
  | Some tgt ->
      let config =
        { Testgen.Explore.default_config with max_tests; max_paths; strategy }
      in
      let js =
        List.map
          (fun f ->
            let source = In_channel.with_open_text f In_channel.input_all in
            Testgen.Oracle.job ~opts ~config ~label:f tgt source)
          files
      in
      let b = Testgen.Oracle.generate_batch ~jobs js in
      let failed = ref 0 in
      List.iter
        (fun (label, o) ->
          match o with
          | Testgen.Oracle.Finished r ->
              let result = r.Testgen.Oracle.result in
              Printf.printf "%-32s %5d tests  %5.1f%% coverage  %.3fs\n" label
                (List.length result.Testgen.Explore.tests)
                (Testgen.Explore.coverage_pct result)
                result.Testgen.Explore.total_time
          | Testgen.Oracle.Failed msg ->
              incr failed;
              Printf.printf "%-32s FAILED: %s\n" label msg)
        b.Testgen.Oracle.outcomes;
      let stats = b.Testgen.Oracle.merged_stats in
      Printf.printf "batch: %d programs, %d paths, %d tests; wall-clock %.3fs on %d job(s)\n"
        (List.length files) stats.Testgen.Explore.paths stats.Testgen.Explore.tests
        b.Testgen.Oracle.batch_wall jobs;
      if metrics then begin
        print_endline "metrics (merged over jobs):";
        Format.printf "%a@?" Obs.Snapshot.pp b.Testgen.Oracle.merged_obs
      end;
      (* the trace gets one track (tid) per finished job *)
      let tracks =
        List.filter_map
          (fun (label, o) ->
            match o with
            | Testgen.Oracle.Finished r -> Some (label, Testgen.Oracle.registry r)
            | Testgen.Oracle.Failed _ -> None)
          b.Testgen.Oracle.outcomes
      in
      let obs_rc = report_obs ~metrics:false ~trace tracks in
      if !failed > 0 then 1 else obs_rc

let batch_files =
  Arg.(
    non_empty & pos_all non_dir_file []
    & info [] ~docv:"PROGRAM.p4" ~doc:"P4 programs to generate tests for")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains; each program runs in its own term context")

let batch_t =
  Term.(
    const run_batch $ batch_files $ target $ jobs $ max_tests $ max_paths $ strategy $ opts
    $ metrics $ trace $ verbose)

(* ------------------------------------------------------------------ *)
(* selftest: the differential fuzzing campaign (§7/§8) *)

let run_selftest cases jobs seed max_seconds out_dir archs max_tests fault no_reduce
    sequences mutation_score metrics trace verbose =
  setup_logs verbose;
  let fault =
    match fault with
    | None -> Ok Sim.Mutation.No_fault
    | Some s -> (
        match Sim.Mutation.fault_of_string s with
        | Some f -> Ok f
        | None -> Error s)
  in
  match fault with
  | Error s ->
      Printf.eprintf "error: unknown fault %s (use a corpus label like TOF-12 or a name like %s)\n"
        s
        (Sim.Mutation.fault_name Sim.Mutation.Swallow_apply);
      1
  | Ok fault ->
      let archs =
        match archs with
        | [] -> Progzoo.Randprog.all_archs
        | names ->
            List.filter_map Progzoo.Randprog.arch_of_string names
      in
      if archs = [] then begin
        Printf.eprintf "error: no valid architecture (v1model, ebpf_model, tna)\n";
        1
      end
      else begin
        let cfg =
          {
            Selftest.Campaign.default_config with
            Selftest.Campaign.cases;
            jobs;
            seed;
            max_seconds;
            archs;
            max_tests;
            fault;
            reduce = not no_reduce;
            sequences;
            out_dir;
          }
        in
        let s = Selftest.Campaign.run cfg in
        Format.printf "%a@?" Selftest.Campaign.pp_summary s;
        let mut_rc =
          if mutation_score then begin
            let results = Selftest.Mutscore.score () in
            let missed = Selftest.Mutscore.undetected results in
            Printf.printf "mutation score: %d/%d faults killed\n"
              (List.length results - List.length missed)
              (List.length results);
            List.iter
              (fun ((m : Sim.Mutation.t), _) ->
                Printf.printf "  MISSED %-8s %s\n" m.Sim.Mutation.m_label
                  m.Sim.Mutation.m_desc)
              missed;
            if missed <> [] then 1 else 0
          end
          else 0
        in
        if metrics then begin
          print_endline "metrics (merged over workers):";
          Format.printf "%a@?" Obs.Snapshot.pp s.Selftest.Campaign.s_obs
        end;
        let obs_rc = report_obs ~metrics:false ~trace s.Selftest.Campaign.s_workers in
        if s.Selftest.Campaign.s_failures <> [] then 1
        else if mut_rc <> 0 then mut_rc
        else obs_rc
      end

let selftest_cases =
  Arg.(value & opt int 50 & info [ "cases" ] ~docv:"N" ~doc:"Random programs to check")

let selftest_seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Campaign master seed")

let selftest_max_seconds =
  Arg.(
    value & opt (some float) None
    & info [ "max-seconds" ] ~docv:"T"
        ~doc:
          "Wall-clock budget; cases not started in time are skipped (reported in \
           the summary)")

let selftest_out =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Write failing programs (reduced repros) to $(docv)")

let selftest_archs =
  Arg.(
    value & opt_all string []
    & info [ "arch" ] ~docv:"ARCH"
        ~doc:
          "Restrict generation to $(docv) (repeatable; default: v1model, \
           ebpf_model and tna round-robin)")

let selftest_max_tests =
  Arg.(
    value & opt int 12
    & info [ "max-tests" ] ~docv:"N" ~doc:"Oracle test budget per generated program")

let selftest_fault =
  Arg.(
    value & opt (some string) None
    & info [ "fault" ] ~docv:"FAULT"
        ~doc:
          "Seed this simulator fault (a corpus label like $(b,TOF-13) or a name \
           like $(b,drop_second_emit)) — the campaign must then detect it; used \
           to self-test the campaign")

let selftest_no_reduce =
  Arg.(value & flag & info [ "no-reduce" ] ~doc:"Skip delta-debugging failing programs")

let selftest_sequences =
  Arg.(
    value & flag
    & info [ "sequences" ]
        ~doc:
          "Generate multi-packet test sequences (2\226\128\1473 packets, derived \
           from each case seed) instead of single-packet tests, exercising \
           stateful-extern continuity across packet boundaries")

let selftest_mutation_score =
  Arg.(
    value & flag
    & info [ "mutation-score" ]
        ~doc:
          "Also run the seeded-fault catalogue (Tbl. 2) and require every fault \
           to be killed by a generated suite")

let selftest_t =
  Term.(
    const run_selftest $ selftest_cases $ jobs $ selftest_seed $ selftest_max_seconds
    $ selftest_out $ selftest_archs $ selftest_max_tests $ selftest_fault
    $ selftest_no_reduce $ selftest_sequences $ selftest_mutation_score $ metrics $ trace
    $ verbose)

(* ------------------------------------------------------------------ *)
(* serve / client / fingerprint: the oracle as a long-running daemon *)

let endpoint_arg =
  Arg.(
    value & opt string "p4testgen.sock"
    & info [ "listen"; "connect" ] ~docv:"ENDPOINT"
        ~doc:
          "Socket endpoint: $(b,unix:PATH) (or a bare path) for a Unix domain \
           socket, $(b,tcp:HOST:PORT) for TCP")

let run_serve endpoint cache_slots workers queue_cap deadline_ms verbose =
  setup_logs verbose;
  match Serve.Wire.endpoint_of_string endpoint with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok ep ->
      let cfg =
        {
          Serve.Server.endpoint = ep;
          cache_slots;
          workers;
          queue_cap;
          default_deadline_ms = deadline_ms;
        }
      in
      Printf.printf "p4testgen serving on %s (cache %d slots, %d workers)\n%!"
        (Serve.Wire.string_of_endpoint ep)
        cache_slots workers;
      Serve.Server.run cfg;
      print_endline "p4testgen serve: shut down";
      0

let serve_t =
  let cache_slots =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.cache_slots
      & info [ "cache-slots" ] ~docv:"N"
          ~doc:"Prepared oracles kept warm (LRU eviction past $(docv))")
  in
  let workers =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Executor domains (drawn from the shared exploration pool; the \
             grant may be smaller on loaded hosts)")
  in
  let queue_cap =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.queue_cap
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission bound: connections queued past $(docv) are rejected \
             with a $(b,busy) frame instead of waiting")
  in
  let deadline_ms =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request budget, measured from admission; a request \
             over budget returns the tests found so far with \
             $(b,timed_out true)")
  in
  Term.(
    const run_serve $ endpoint_arg $ cache_slots $ workers $ queue_cap
    $ deadline_ms $ verbose)

let strategy_name = function
  | Testgen.Explore.Dfs -> "dfs"
  | Testgen.Explore.Rnd -> "rnd"
  | Testgen.Explore.Cov -> "cov"

let run_client endpoint file target backend strategy seed max_tests max_paths
    seq_packets deadline_ms key ping flush shutdown out_file print_tests metrics
    verbose =
  setup_logs verbose;
  match Serve.Wire.endpoint_of_string endpoint with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok ep -> (
      let source =
        Option.map (fun f -> In_channel.with_open_text f In_channel.input_all) file
      in
      let op =
        if ping then Serve.Wire.Ping
        else if flush then Serve.Wire.Flush
        else if shutdown then Serve.Wire.Shutdown
        else Serve.Wire.Generate
      in
      if op = Serve.Wire.Generate && source = None && key = None then begin
        Printf.eprintf
          "error: client needs a PROGRAM.p4 argument or --key FINGERPRINT \
           (or one of --ping/--flush/--shutdown)\n";
        1
      end
      else
        let rq =
          {
            Serve.Wire.rq_op = op;
            rq_arch = target;
            rq_backend = backend;
            rq_strategy = strategy_name strategy;
            rq_seed = seed;
            rq_max_tests = max_tests;
            rq_max_paths = max_paths;
            rq_seq_packets = seq_packets;
            rq_deadline_ms = deadline_ms;
            rq_key = key;
            rq_source = source;
          }
        in
        let rc = ref 0 in
        let on_event = function
          | Serve.Wire.Test (n, body) ->
              if print_tests then Printf.printf "-- test %d --\n%s\n%!" n body
          | Serve.Wire.File (be, body) -> (
              match out_file with
              | Some f ->
                  Out_channel.with_open_text f (fun oc ->
                      Out_channel.output_string oc body);
                  Printf.printf "wrote %s\n" f
              | None ->
                  Printf.printf "-- %s file (%d bytes; use -o to save) --\n" be
                    (String.length body))
          | Serve.Wire.Summary kvs ->
              List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) kvs
          | Serve.Wire.Obs json -> if metrics then Printf.printf "obs %s\n" json
          | Serve.Wire.Error (kind, msg) ->
              Printf.eprintf "error (%s): %s\n" kind msg;
              rc := 1
          | Serve.Wire.Okay body -> Printf.printf "ok %s\n" body
          | Serve.Wire.End -> ()
        in
        match Serve.Client.request ~on_event ep rq with
        | Ok _ -> !rc
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1)

let client_t =
  let client_file =
    Arg.(
      value & pos 0 (some non_dir_file) None
      & info [] ~docv:"PROGRAM.p4" ~doc:"P4 program to send (optional with --key)")
  in
  let client_backend =
    Arg.(
      value & opt (some string) None
      & info [ "b"; "backend" ] ~docv:"BACKEND"
          ~doc:"Also stream the rendered test file (stf, ptf, protobuf)")
  in
  let deadline_ms =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request budget")
  in
  let key =
    Arg.(
      value & opt (some string) None
      & info [ "key" ] ~docv:"FINGERPRINT"
          ~doc:
            "Request by cache key alone (no source shipped); the server \
             answers $(b,unknown-fingerprint) when the oracle is not cached")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Health-check the daemon") in
  let flush =
    Arg.(value & flag & info [ "flush" ] ~doc:"Empty the server's oracle cache")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Stop the daemon gracefully")
  in
  Term.(
    const run_client $ endpoint_arg $ client_file $ target $ client_backend
    $ strategy $ seed $ max_tests $ max_paths $ seq_packets $ deadline_ms $ key
    $ ping $ flush $ shutdown $ out_file $ print_tests $ metrics $ verbose)

let run_fingerprint file target =
  let source = In_channel.with_open_text file In_channel.input_all in
  match Testgen.Oracle.fingerprint ~arch:target source with
  | Ok key ->
      print_endline key;
      0
  | Error e ->
      Printf.eprintf "%s: %s\n" file (Testgen.Oracle.prepare_error_message e);
      1

let fingerprint_t = Term.(const run_fingerprint $ file $ target)

(* ------------------------------------------------------------------ *)

let man =
  [
    `S Manpage.s_description;
    `P
      "$(mname) symbolically executes a P4-16 program under a target \
       architecture's whole-program semantics and emits, for each feasible \
       program path, a test: an input packet, the control-plane \
       configuration needed to drive the path, and the expected output \
       packet(s).";
    `P "An OCaml reproduction of P4Testgen (Ruffy et al., SIGCOMM 2023).";
  ]

let generate_cmd =
  let doc = "generate input-output packet tests for one P4 program (the default)" in
  Cmd.v (Cmd.info "generate" ~doc ~man) generate_t

let batch_cmd =
  let doc = "generate tests for many P4 programs in parallel across domains" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the oracle over each given program.  With $(b,--jobs) N the \
         programs are distributed over N domains; every program owns its \
         term context and solver, so results are identical to a sequential \
         run with the same seed.";
    ]
  in
  Cmd.v (Cmd.info "batch" ~doc ~man) batch_t

let selftest_cmd =
  let doc = "differentially fuzz the oracle against the built-in software models" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates random well-typed P4 programs for all three architectures, \
         runs the oracle on each, executes every generated test on the \
         independent concrete simulator, and checks cross-cutting invariants \
         (seed determinism, strategy agreement).  Any disagreement is \
         automatically shrunk to a minimal repro with AST-level delta \
         debugging.";
      `P
        "The campaign summary (cases, failures, tests, feature coverage) is \
         independent of $(b,--jobs): identical for any worker count.";
    ]
  in
  Cmd.v (Cmd.info "selftest" ~doc ~man) selftest_t

let serve_cmd =
  let doc = "run the oracle as a long-running daemon with a prepared-oracle cache" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Listens on a Unix or TCP socket for framed requests (4-byte \
         big-endian length prefix; see the README's Serving section).  \
         Prepared oracles — parsed, type-checked, mid-end-passed programs — \
         are cached under a fingerprint of the source token stream, so \
         repeat requests for the same program skip preparation entirely and \
         go straight to path exploration.  Tests stream back as individual \
         frames while paths close, followed by a summary and a metric \
         snapshot.";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man) serve_t

let client_cmd =
  let doc = "send one request to a p4testgen serve daemon" in
  Cmd.v (Cmd.info "client" ~doc ~man) client_t

let fingerprint_cmd =
  let doc = "print the serve cache key of a program" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The fingerprint digests the source's token stream (whitespace and \
         comments never change it), the architecture name and a format \
         version — exactly the key the serve daemon caches prepared oracles \
         under, so a client can probe or address the cache without shipping \
         the source.";
    ]
  in
  Cmd.v (Cmd.info "fingerprint" ~doc ~man) fingerprint_t

let cmd =
  let doc = "generate input-output packet tests for P4 programs" in
  Cmd.group ~default:generate_t
    (Cmd.info "p4testgen" ~version:"1.0.0" ~doc ~man)
    [ generate_cmd; batch_cmd; selftest_cmd; serve_cmd; client_cmd; fingerprint_cmd ]

let () =
  (* back-compat: `p4testgen prog.p4 ...` (no subcommand) still runs
     the generator — route anything that is not a known subcommand or a
     group-level flag to `generate` *)
  let argv = Sys.argv in
  let argv =
    if
      Array.length argv > 1
      &&
      match argv.(1) with
      | "batch" | "generate" | "selftest" | "serve" | "client" | "fingerprint"
      | "--help" | "--version" ->
          false
      | _ -> true
    then
      Array.concat [ [| argv.(0); "generate" |]; Array.sub argv 1 (Array.length argv - 1) ]
    else argv
  in
  exit (Cmd.eval' ~argv cmd)
