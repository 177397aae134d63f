(* Exploration-strategy and precondition tests: DFS exhaustion,
   random ordering, coverage-filtered emission, test caps, fixed packet
   size, P4-constraints pruning, recirculation bounds. *)

module Bits = Bitv.Bits
module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Runtime = Testgen.Runtime
module Testspec = Testgen.Testspec

let v1model = Targets.V1model.target

let generate ?(opts = Runtime.default_options) ?(config = Explore.default_config) src =
  Oracle.generate ~opts ~config v1model src

let strategies =
  [ ("dfs", Explore.Dfs); ("rnd", Explore.Rnd); ("cov", Explore.Cov) ]

let test_dfs_exhaustive () =
  (* every feasible path became a test or was deliberately discarded,
     whatever the strategy *)
  List.iter
    (fun (name, strategy) ->
      let config = { Explore.default_config with Explore.strategy } in
      let r = (generate ~config Progzoo.Corpus.lpm_router).Oracle.result in
      let s = r.Explore.stats in
      Alcotest.(check int)
        (name ^ ": paths = tests + discards")
        s.Explore.paths
        (s.Explore.tests + s.Explore.discarded_taint
       + s.Explore.discarded_concolic + s.Explore.discarded_cov
       + s.Explore.discarded_budget);
      Alcotest.(check bool) (name ^ ": pruning happened") true (s.Explore.infeasible >= 0))
    strategies

(* A branch no solve settles within the SAT core's conflict budget:
   the constant is a prime above 2^32, so no two 32-bit fields
   multiply to it, but refuting the product takes a CDCL search far
   past the budget.  The fixed packet size leaves one path into the
   ingress. *)
let hard_branch =
  {|
header pair_t { bit<32> a; bit<32> b; }
struct headers_t { pair_t h; }
struct meta_t { }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta,
         inout standard_metadata_t sm) {
  state start { pkt.extract(hdr.h); transition accept; }
}
control V(inout headers_t hdr, inout meta_t meta) { apply { } }
control I(inout headers_t hdr, inout meta_t meta,
          inout standard_metadata_t sm) {
  apply {
    if (((bit<64>)hdr.h.a) * ((bit<64>)hdr.h.b) == 64w4611686018427387847
        && hdr.h.a != 1 && hdr.h.b != 1) {
      sm.egress_spec = 2;
    } else {
      sm.egress_spec = 3;
    }
  }
}
control E(inout headers_t hdr, inout meta_t meta,
          inout standard_metadata_t sm) { apply { } }
control C(inout headers_t hdr, inout meta_t meta) { apply { } }
control D(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.h); } }
V1Switch(P(), V(), I(), E(), C(), D()) main;
|}

let test_budget_cut () =
  (* the cut branch is not entered and not counted as infeasible; the
     else branch still gets its test *)
  let opts = { Runtime.default_options with Runtime.fixed_packet_bytes = Some 8 } in
  let r = (generate ~opts hard_branch).Oracle.result in
  let d = r.Explore.obs in
  Alcotest.(check int) "one branch cut" 1 (Obs.Snapshot.get_int d "explore.budget_cut");
  Alcotest.(check int) "nothing infeasible" 0 r.Explore.stats.Explore.infeasible;
  Alcotest.(check (list int)) "else-branch test forwards to port 3" [ 3 ]
    (List.concat_map
       (fun t -> List.map (fun (o : Testspec.packet) -> Bits.to_int o.port) (Testspec.outputs t))
       r.Explore.tests)

let test_max_tests_cap () =
  let config = { Explore.default_config with Explore.max_tests = Some 3 } in
  let run = generate ~config Progzoo.Corpus.lpm_router in
  Alcotest.(check int) "capped" 3 (List.length run.Oracle.result.Explore.tests)

let test_rnd_same_coverage () =
  (* random branch ordering explores the same path space *)
  let run_dfs = generate Progzoo.Corpus.lpm_router in
  let config = { Explore.default_config with Explore.strategy = Explore.Rnd } in
  let run_rnd = generate ~config Progzoo.Corpus.lpm_router in
  Alcotest.(check int) "same test count"
    (List.length run_dfs.Oracle.result.Explore.tests)
    (List.length run_rnd.Oracle.result.Explore.tests);
  Alcotest.(check bool) "same coverage" true
    (Testgen.Runtime.IntSet.equal run_dfs.Oracle.result.Explore.covered
       run_rnd.Oracle.result.Explore.covered)

let test_cov_greedy_fewer_tests () =
  (* the coverage strategy emits only coverage-increasing tests: never
     more than DFS, same final coverage.  It checks novelty before
     building a test, so it resolves only the tests it keeps, and it
     stops at full coverage, walking fewer paths than DFS *)
  let run_dfs = generate Progzoo.Corpus.lpm_router in
  let config = { Explore.default_config with Explore.strategy = Explore.Cov } in
  let run_cov = generate ~config Progzoo.Corpus.lpm_router in
  let dfs = run_dfs.Oracle.result and cov = run_cov.Oracle.result in
  Alcotest.(check bool) "fewer or equal tests" true
    (List.length cov.Explore.tests <= List.length dfs.Explore.tests);
  Alcotest.(check bool) "same coverage" true
    (Testgen.Runtime.IntSet.equal dfs.Explore.covered cov.Explore.covered);
  Alcotest.(check (float 0.0)) "full coverage" 100.0 (Explore.coverage_pct cov);
  Alcotest.(check int) "resolves only kept tests"
    (Obs.Snapshot.get_int cov.Explore.obs "explore.tests")
    (Obs.Snapshot.get_int cov.Explore.obs "concolic.resolved");
  Alcotest.(check bool)
    (Printf.sprintf "fewer paths (%d < %d)" cov.Explore.stats.Explore.paths
       dfs.Explore.stats.Explore.paths)
    true
    (cov.Explore.stats.Explore.paths < dfs.Explore.stats.Explore.paths)

let test_fixed_packet_size () =
  (* with a fixed input size there are no parser-reject paths and every
     input is exactly that size (Tbl. 4b) *)
  let opts = { Runtime.default_options with Runtime.fixed_packet_bytes = Some 64 } in
  let run = generate ~opts Progzoo.Corpus.lpm_router in
  let tests = run.Oracle.result.Explore.tests in
  Alcotest.(check bool) "tests exist" true (tests <> []);
  List.iter
    (fun (t : Testspec.t) ->
      Alcotest.(check bool) "no short packets" true (Bits.width (Testspec.input t).data > 0))
    tests

let test_constraints_prune () =
  let src = Progzoo.Generators.middleblock ~acl_stages:1 () in
  let with_c =
    generate ~opts:{ Runtime.default_options with Runtime.apply_constraints = true } src
  in
  let without_c =
    generate ~opts:{ Runtime.default_options with Runtime.apply_constraints = false } src
  in
  let n_with = with_c.Oracle.result.Explore.stats.Explore.paths in
  let n_without = without_c.Oracle.result.Explore.stats.Explore.paths in
  Alcotest.(check bool)
    (Printf.sprintf "constraints prune paths (%d < %d)" n_with n_without)
    true (n_with < n_without);
  (* and the restriction is visible in the emitted entries: every acl
     entry's proto key is 6 or 17 *)
  List.iter
    (fun (t : Testspec.t) ->
      List.iter
        (fun (e : Testspec.entry) ->
          if e.e_table = "acl_0" then
            List.iter
              (fun (k, m) ->
                if k = "proto" then
                  match m with
                  | Testspec.MTernary (v, _) ->
                      let v = Bits.to_int v in
                      Alcotest.(check bool) "proto constrained" true (v = 6 || v = 17)
                  | _ -> ())
              e.e_keys)
        t.entries)
    with_c.Oracle.result.Explore.tests

let test_recirculation_bounded () =
  (* the recirculate program loops; the bound keeps exploration finite
     and recirculated paths yield tests *)
  let run = generate Progzoo.Corpus.recirculate_program in
  let r = run.Oracle.result in
  Alcotest.(check bool) "terminates with tests" true (r.Explore.tests <> []);
  let recirc_tests =
    List.filter
      (fun (t : Testspec.t) ->
        let rec contains s sub i =
          i + String.length sub <= String.length s
          && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
        in
        contains t.comment "recirculate" 0)
      r.Explore.tests
  in
  Alcotest.(check bool) "recirculated path tested" true (recirc_tests <> [])

let test_unroll_bound_controls_depth () =
  (* deeper unrolling exposes more MPLS stack paths *)
  let shallow =
    generate ~opts:{ Runtime.default_options with Runtime.unroll_bound = 1 }
      Progzoo.Corpus.mpls_stack
  in
  let deep =
    generate ~opts:{ Runtime.default_options with Runtime.unroll_bound = 4 }
      Progzoo.Corpus.mpls_stack
  in
  Alcotest.(check bool) "more paths with deeper unrolling" true
    (deep.Oracle.result.Explore.stats.Explore.paths
    > shallow.Oracle.result.Explore.stats.Explore.paths)

let test_seed_changes_values_not_paths () =
  let r1 = generate ~opts:{ Runtime.default_options with Runtime.seed = 1 } Progzoo.Corpus.fig1a in
  let r2 = generate ~opts:{ Runtime.default_options with Runtime.seed = 99 } Progzoo.Corpus.fig1a in
  Alcotest.(check int) "same number of tests"
    (List.length r1.Oracle.result.Explore.tests)
    (List.length r2.Oracle.result.Explore.tests);
  (* randomized free inputs (ports) differ across seeds somewhere *)
  let ports run =
    List.map
      (fun (t : Testspec.t) -> Bits.to_hex (Testspec.input t).port)
      run.Oracle.result.Explore.tests
  in
  Alcotest.(check bool) "different random choices" true (ports r1 <> ports r2)

(* middleblock with 8 ACL stages opens up to 16 scopes along its DFS
   spine *)
let mb8_cap400 ?(config = Explore.default_config) () =
  generate
    ~config:{ config with Explore.max_tests = Some 400 }
    (Progzoo.Generators.middleblock ~acl_stages:8 ())

let mb8_default = lazy (mb8_cap400 ())

(* Without the query cache every branch is decided by the probe (or
   its last model): the probe is synced before each check and trimmed
   on each pop, so its scopes are pushed and popped at every level of
   the spine.  Its verdicts must still give the default run's tree. *)
let test_probe_prefix () =
  let normal = Lazy.force mb8_default in
  let probed = mb8_cap400 ~config:{ Explore.default_config with Explore.query_cache = false } () in
  let shape run =
    List.map
      (fun (t : Testspec.t) -> (t.comment, t.covered))
      run.Oracle.result.Explore.tests
  in
  let stat run = run.Oracle.result.Explore.stats in
  Alcotest.(check int) "same test count"
    (List.length normal.Oracle.result.Explore.tests)
    (List.length probed.Oracle.result.Explore.tests);
  Alcotest.(check bool) "same comments and per-test coverage" true
    (shape normal = shape probed);
  Alcotest.(check bool) "same coverage" true
    (Testgen.Runtime.IntSet.equal normal.Oracle.result.Explore.covered
       probed.Oracle.result.Explore.covered);
  Alcotest.(check int) "same infeasible branches" (stat normal).Explore.infeasible
    (stat probed).Explore.infeasible;
  Alcotest.(check int) "no path lost to concolic" 0 (stat probed).Explore.discarded_concolic

(* A pop frees what its scope added, so each solver holds only the
   live spine.  When pops only disabled their scopes, a solver of this
   run reached 4,116 SAT variables (and was rebuilt from the spine). *)
let test_live_spine () =
  let n = Obs.Snapshot.get_int (Lazy.force mb8_default).Oracle.result.Explore.obs "solver.vars_hw" in
  Alcotest.(check bool) (Printf.sprintf "%d SAT variables < 2000" n) true (n > 0 && n < 2000)

(* solve_time aggregates over both solvers of the run, so emission's
   solver share can never exceed it *)
let test_solve_time () =
  let r = (Lazy.force mb8_default).Oracle.result in
  Alcotest.(check bool) "solve time covers emission's" true
    (r.Explore.solve_time >= r.Explore.stats.Explore.t_emit_solve
    && r.Explore.stats.Explore.t_emit_solve > 0.0)

(* ------------------------------------------------------------------ *)
(* The driver: direct calls, deadlines, callback exceptions *)

let test_direct_call () =
  (* a direct [Explore.run] over an instantiated context emits exactly
     the suite [Oracle.generate] emits with the same config *)
  let src = Progzoo.Corpus.lpm_router in
  let ctx, st = Oracle.instantiate (Oracle.prepare v1model src) in
  let r = Explore.run ctx st in
  Alcotest.(check bool) "some tests" true (r.Explore.tests <> []);
  let via_oracle = generate src in
  Alcotest.(check (list string)) "same suite as Oracle.generate"
    (List.map Testspec.to_string via_oracle.Oracle.result.Explore.tests)
    (List.map Testspec.to_string r.Explore.tests)

let test_on_test_raises () =
  (* an exception from the [on_test] callback aborts the run and
     reaches the caller *)
  let config =
    { Explore.default_config with Explore.on_test = Some (fun _ -> raise Exit) }
  in
  Alcotest.check_raises "callback exception propagates" Exit (fun () ->
      ignore (generate ~config Progzoo.Corpus.lpm_router))

(* [Pool.iter] is how batch and the selftest campaign fan out: a worker
   that raises must reach the caller only after every domain is joined
   and the pool's tokens are back *)
let test_pool_returns_tokens () =
  let tokens0 = Atomic.get Explore.Pool.tokens in
  (match Explore.Pool.iter 2 4 (fun _ i -> if i = 2 then failwith "index 2") with
  | () -> Alcotest.fail "the worker's exception did not reach the caller"
  | exception Failure msg -> Alcotest.(check string) "the worker's exception" "index 2" msg);
  Alcotest.(check int) "pool tokens returned" tokens0 (Atomic.get Explore.Pool.tokens)

let test_deadline_passed () =
  (* the deadline is checked before every step, so one already in the
     past stops the run before the first path closes *)
  let config =
    { Explore.default_config with Explore.deadline = Some (Obs.Clock.now () -. 1.0) }
  in
  let r = (generate ~config Progzoo.Corpus.lpm_router).Oracle.result in
  Alcotest.(check int) "no paths" 0 r.Explore.stats.Explore.paths;
  Alcotest.(check int) "no tests" 0 (List.length r.Explore.tests)

(* ------------------------------------------------------------------ *)
(* Phase ledger *)

let test_ledger_partition () =
  (* the named explorer timers account for the sequential run's
     wall-clock; a ratio, so host speed cancels out *)
  let r =
    (generate (Progzoo.Generators.middleblock ~acl_stages:2 ())).Oracle.result
  in
  let f = Obs.Snapshot.get_float r.Explore.obs in
  let named = f "explore.t_step" +. f "explore.t_emit" +. f "explore.t_branch" in
  let total = f "explore.total_time" in
  Alcotest.(check bool)
    (Printf.sprintf "named timers %.3fs of %.3fs" named total)
    true
    (named >= 0.95 *. total);
  (* emission splits into randomisation, the concolic resolve and the
     readout of the test from the model *)
  let emit_named = f "explore.t_randomize" +. f "concolic.time" +. f "explore.t_readout" in
  let emit = f "explore.t_emit" in
  Alcotest.(check bool)
    (Printf.sprintf "emission timers %.3fs of %.3fs" emit_named emit)
    true
    (emit_named >= 0.9 *. emit)

(* ------------------------------------------------------------------ *)
(* Multi-packet test sequences (stateful externs across packets, §5) *)

let test_sequence_register_dependent () =
  let opts = { Runtime.default_options with Runtime.seq_packets = 2 } in
  let run = generate ~opts Progzoo.Corpus.register_program in
  let tests = run.Oracle.result.Explore.tests in
  let seqs = List.filter Testspec.is_sequence tests in
  Alcotest.(check bool) "sequences generated" true (seqs <> []);
  List.iter
    (fun t ->
      Alcotest.(check int) "two injections" 2 (List.length (Testspec.injects t)))
    seqs;
  (* the register-dependent path: cell 3 holds 0 on the first packet
     (-> port 7) and the written 1 on the second (-> port 8) — visible
     only because register state survived the packet boundary *)
  let out_ports t =
    List.map
      (fun (_, outs) ->
        match outs with
        | [ (o : Testspec.packet) ] -> Bits.to_int o.port
        | _ -> -1)
      (Testspec.injects t)
  in
  Alcotest.(check bool) "7-then-8 path found" true
    (List.exists (fun t -> out_ports t = [ 7; 8 ]) seqs);
  let d = run.Oracle.result.Explore.obs in
  Alcotest.(check bool) "sequence_paths counted" true
    (Obs.Snapshot.get_int d "explore.sequence_paths" > 0);
  Alcotest.(check int) "sequence_tests counted" (List.length seqs)
    (Obs.Snapshot.get_int d "explore.sequence_tests")

let test_single_packet_default_unchanged () =
  (* seq_packets defaults to 1: the same program yields only classic
     single-injection tests *)
  let run = generate Progzoo.Corpus.register_program in
  List.iter
    (fun t ->
      Alcotest.(check bool) "not a sequence" false (Testspec.is_sequence t))
    run.Oracle.result.Explore.tests

let () =
  Alcotest.run "explore"
    [
      ( "strategies",
        [
          Alcotest.test_case "dfs exhaustive" `Quick test_dfs_exhaustive;
          Alcotest.test_case "max-tests cap" `Quick test_max_tests_cap;
          Alcotest.test_case "hard branch cut by the conflict budget" `Quick
            test_budget_cut;
          Alcotest.test_case "rnd same coverage" `Quick test_rnd_same_coverage;
          Alcotest.test_case "cov-greedy fewer tests" `Quick test_cov_greedy_fewer_tests;
        ] );
      ( "preconditions",
        [
          Alcotest.test_case "fixed packet size" `Quick test_fixed_packet_size;
          Alcotest.test_case "p4-constraints prune" `Quick test_constraints_prune;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "recirculation" `Quick test_recirculation_bounded;
          Alcotest.test_case "unroll depth" `Quick test_unroll_bound_controls_depth;
          Alcotest.test_case "seed variation" `Quick test_seed_changes_values_not_paths;
          Alcotest.test_case "probe synced and trimmed" `Quick test_probe_prefix;
          Alcotest.test_case "solver holds its live spine" `Quick test_live_spine;
          Alcotest.test_case "solve time covers emission" `Quick test_solve_time;
        ] );
      ( "driver",
        [
          Alcotest.test_case "direct Explore.run = Oracle.generate" `Quick
            test_direct_call;
          Alcotest.test_case "passed deadline stops the run" `Quick
            test_deadline_passed;
          Alcotest.test_case "on_test exception aborts the run" `Quick
            test_on_test_raises;
          Alcotest.test_case "failed worker returns pool tokens" `Quick
            test_pool_returns_tokens;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "named timers cover the run" `Quick
            test_ledger_partition;
        ] );
      ( "sequences",
        [
          Alcotest.test_case "register-dependent 2-packet path" `Quick
            test_sequence_register_dependent;
          Alcotest.test_case "single-packet default unchanged" `Quick
            test_single_packet_default_unchanged;
        ] );
    ]
