(* selftest_campaign: the self-validation campaign's per-case pipeline
   (Campaign.eval_case: oracle suite replayed on the independent
   simulator, plus the cadenced invariants) over many small random
   programs.  Per-program fixed costs dominate: randprog generation,
   prepare and Sim.Harness.  The explorer runs differently from gen_*:
   Cov strategy, 12 tests, max_paths 384.

   The case programs are a fixed pool (the campaign's first cases at
   master seed 1, round-robin over v1model, ebpf and tna); the seed
   picks each case's oracle seed and the order of every pass.  Case cost
   varies tenfold between random programs, so a pool drawn per seed
   would move cases per second by more than any bound a regression
   gate can use. *)

module Campaign = Selftest.Campaign
module Randprog = Progzoo.Randprog
module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
open Common

let pool_size = 36
let cfg = { Campaign.default_config with Campaign.jobs = 1; reduce = false }

type case = { i : int; arch : Randprog.arch; pseed : int; oseed : int }

let pool seed =
  Array.init pool_size (fun i ->
      { i; arch = Campaign.case_arch cfg i; pseed = Campaign.case_seed 1 i; oseed = Campaign.case_seed seed i })

let arch_name c = Randprog.arch_name c.arch
let describe c = Printf.sprintf "case %d (%s, program seed %d, oracle seed %d)" c.i (arch_name c) c.pseed c.oseed

(* outcome of one case: tests generated, or the failure *)
type verdict = (int, string) result

type sample = { pass : int; traced : bool; case : case; secs : float; verdict : verdict }

(* cases per second, median over the passes in [samples] *)
let rate samples =
  let passes = List.sort_uniq compare (List.map (fun s -> s.pass) samples) in
  median
    (List.map
       (fun p ->
         float_of_int pool_size
         /. List.fold_left (fun a s -> if s.pass = p then a +. s.secs else a) 0.0 samples)
       passes)

let run_case reg keys c : float * verdict =
  let t0 = now () in
  let g = Randprog.generate_for ~arch:c.arch ~seed:c.pseed in
  let r, ks =
    Campaign.eval_case cfg reg ~i:c.i ~seed:c.oseed ~arch_name:(arch_name c) ~src:g.Randprog.src
      ~features:g.Randprog.features
  in
  let dt = now () -. t0 in
  keys := Testgen.Runtime.IntSet.union !keys ks;
  ( dt,
    match r.Campaign.r_failure with
    | None -> Ok r.Campaign.r_tests
    | Some f -> Error (f.Campaign.f_kind ^ ": " ^ f.Campaign.f_detail) )

(* the same case re-driven through the public calls eval_case makes,
   with a span around each; its suite is kept in [suites] *)
let run_traced reg acc suites ~args c : float * verdict =
  let span name f = Obs.Span.with_ reg name f in
  let arch = arch_name c in
  let t0 = now () in
  let v =
    Obs.Span.with_ reg ~args "case" (fun () ->
        try
          let g = span "Randprog.generate_for" (fun () -> Randprog.generate_for ~arch:c.arch ~seed:c.pseed) in
          let src = g.Randprog.src in
          let opts = { Testgen.Runtime.default_options with seed = c.oseed } in
          let p = span "Oracle.prepare" (fun () -> Oracle.prepare ~opts ~obs:reg (target_of arch) src) in
          let config = { Campaign.campaign_explore with Explore.max_tests = Some cfg.Campaign.max_tests } in
          let run = span "Oracle.explore_prepared" (fun () -> Oracle.explore_prepared ~opts ~config ~obs:reg p) in
          let result = run.Oracle.result in
          let tests = result.Explore.tests in
          suites := (c.i, tests) :: !suites;
          Acc.add acc "bench.covered" (float_of_int (Testgen.Runtime.IntSet.cardinal result.Explore.covered));
          Acc.add acc "bench.stmts" (float_of_int result.Explore.total_stmts);
          let sim =
            span "Sim.Harness.prepare" (fun () ->
                Sim.Harness.prepare ~fault:Sim.Mutation.No_fault ~seed:c.oseed ~arch src)
          in
          let summary, _ = span "Sim.Harness.run_suite" (fun () -> Sim.Harness.run_suite sim tests) in
          if summary.Sim.Harness.passed <> summary.Sim.Harness.total then
            Error (Printf.sprintf "%d of %d tests fail on the simulator"
                     (summary.Sim.Harness.total - summary.Sim.Harness.passed) summary.Sim.Harness.total)
          else
            match
              span "Campaign.check_invariants" (fun () ->
                  Campaign.check_invariants ~arch ~seed:c.oseed ~max_tests:cfg.Campaign.max_tests
                    ~seq_packets:1 ~i:c.i src)
            with
            | Some (name, detail) -> Error ("invariant: " ^ name ^ ": " ^ detail)
            | None -> Ok (List.length tests)
        with e -> Error (Printexc.to_string e))
  in
  (now () -. t0, v)

(* set-up: a 3-case warm-up campaign at a master seed the pool does not
   use; fixed, so set-up time does not depend on the workload seed.  Its
   verdicts are not checks: the pool's cases are. *)
let setup () = ignore (Campaign.run { cfg with Campaign.cases = 3; seed = 2 })

let run ~workload ~seed ~seconds ~traced ~trace_dir =
  let setup_s =
    median (List.init 3 (fun _ -> let t0 = now () in setup (); now () -. t0))
  in
  let cases = pool seed in
  let reg = Obs.Registry.create () and ereg = Obs.Registry.create ~record_spans:false () in
  let acc = Acc.create () in
  let keys = ref Testgen.Runtime.IntSet.empty and suites = ref [] in
  let samples = ref [] in
  let t_end = now () +. seconds in
  let min_passes = if traced then 2 else 1 in
  let p = ref 0 in
  while !p < min_passes || now () < t_end do
    (* a traced run alternates traced and untraced passes *)
    let pass_traced = traced && !p mod 2 = 1 in
    let pass () =
      Array.iter
        (fun k ->
          let c = cases.(k) in
          let secs, verdict =
            if pass_traced then
              let args = [ ("workload", workload); ("round", string_of_int !p); ("case", string_of_int c.i) ] in
              run_traced reg acc suites ~args c
            else run_case ereg keys c
          in
          samples := { pass = !p; traced = pass_traced; case = c; secs; verdict } :: !samples)
        (shuffle (rng seed (3000 + !p)) (Array.init pool_size Fun.id))
    in
    let t0 = now () in
    if pass_traced then Layers.gc_measured acc pass else pass ();
    Printf.printf "# %s pass %d%s: %d cases in %.3fs\n%!" workload !p
      (if pass_traced then " (traced)" else "") pool_size (now () -. t0);
    incr p
  done;
  let peak_rss_mb = self_peak_rss_mb () in
  let samples = List.rev !samples in
  (* ---- checks: every case passes, and emits the same number of tests
     in every pass, traced or not ---- *)
  let failures = ref [] and failed = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures; incr failed) fmt in
  let counts = Array.make pool_size None in
  List.iter
    (fun s ->
      let c = s.case in
      match s.verdict with
      | Error msg -> fail "%s: %s, pass %d: %s" workload (describe c) s.pass msg
      | Ok n -> (
          match counts.(c.i) with
          | None -> counts.(c.i) <- Some (s.pass, n)
          | Some (p0, n0) when n0 <> n ->
              fail "%s: %s: %d tests in pass %d but %d in pass %d" workload (describe c) n s.pass n0 p0
          | Some _ -> ()))
    samples;
  (* ---- metrics ---- *)
  let traced_samples, untraced = List.partition (fun s -> s.traced) samples in
  let case_ms = List.map (fun s -> 1e3 *. s.secs) untraced in
  let tail = tail ~level:90 case_ms in
  let attempted = List.length samples in
  Printf.printf "# %s: %d passes over %d cases (%d cases); latency tail p%d of n=%d (%d above)\n"
    workload !p pool_size attempted tail.level tail.n tail.above;
  let e2e =
    [
      ("ops_per_s", rate untraced);
      ("lat_p50_ms", median case_ms);
      ("lat_tail_ms", tail.value);
      ("setup_s", setup_s);
      ("peak_rss_mb", peak_rss_mb);
    ]
  in
  let layers =
    if not traced then []
    else begin
      (* the campaign renders no files; the back-end layer is timed on
         the traced suites, outside the timed window *)
      List.iter
        (fun (i, tests) ->
          let be = List.nth Backends.Registry.all (i mod List.length Backends.Registry.all) in
          let file =
            Obs.Span.with_ reg "Backends.Registry.emit_observed" (fun () ->
                Backends.Registry.emit_observed ~obs:reg be tests)
          in
          Acc.add acc "bench.emit_bytes" (float_of_int (String.length file)))
        !suites;
      Layers.time_front_end ~reps:1 acc reg
        (Array.to_list
           (Array.map (fun c -> (arch_name c, (Randprog.generate_for ~arch:c.arch ~seed:c.pseed).Randprog.src)) cases));
      Layers.add_spans acc reg;
      Acc.add_snapshot acc (Obs.Registry.snapshot reg);
      let tracks = [ (workload, reg) ] in
      Layers.print_span_table workload tracks;
      Layers.write_trace trace_dir workload tracks;
      let per = float_of_int (List.length traced_samples / pool_size) in
      let case_spans =
        List.filter_map (fun (name, d, _) -> if name = "case" then Some (1e3 *. d) else None) (Obs.Registry.spans reg)
      in
      let covered = Acc.get acc "bench.covered" and stmts = Acc.get acc "bench.stmts" in
      Layers.print_diagnostics workload
        [
          ( "randprog.gen_ms",
            1e3 *. Acc.get acc "span.Randprog.generate_for" /. float_of_int (List.length traced_samples),
            "ms" );
          ("selftest.invariants_s", Acc.get acc "span.Campaign.check_invariants" /. per, "s");
          ("selftest.case_p50_ms", median case_spans, "ms");
          ("selftest.case_tail_ms", (Common.tail ~level:90 case_spans).value, "ms");
          ("trace.span_coverage_pct", Layers.span_coverage_pct tracks ~op:"case", "%");
        ];
      Layers.derive acc ~per
        ~specific:
          [
            ("selftest.cov1000", float_of_int (Testgen.Runtime.IntSet.cardinal !keys) *. 1000.0 /. float_of_int pool_size);
            ("sim.prepare_s", Acc.get acc "span.Sim.Harness.prepare" /. per);
            ("sim.run_suite_s", Acc.get acc "span.Sim.Harness.run_suite" /. per);
            ("explore.stmt_cov_pct", if stmts > 0.0 then 100.0 *. covered /. stmts else 0.0);
            ("trace.overhead_pct", 100.0 *. ((rate untraced /. rate traced_samples) -. 1.0));
          ]
    end
  in
  { attempted; failed = !failed; failures = List.rev !failures; e2e; layers }
