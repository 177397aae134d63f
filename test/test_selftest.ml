(* Unit tests for the self-validation machinery itself: the random
   program generator's feature coverage, the hierarchical-delta
   reducer (predicate preservation, determinism, measured shrink on
   hand-built oversized failing programs), and the end-to-end
   seeded-fault campaign (a known simulator fault must be detected and
   auto-reduced to a small repro that still exposes it). *)

module Campaign = Selftest.Campaign
module Reduce = Selftest.Reduce
module Randprog = Progzoo.Randprog

(* ------------------------------------------------------------------ *)
(* Generator feature coverage: over a modest seed range, every
   architecture together must exercise the whole feature universe —
   tables (all key kinds), parsers with select over header stacks,
   checksum externs, and all three architectures. *)

let test_feature_coverage () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun arch ->
      for seed = 1 to 80 do
        let gen = Randprog.generate_for ~arch ~seed in
        List.iter (fun f -> Hashtbl.replace seen f ()) gen.Randprog.features
      done)
    Randprog.all_archs;
  let covered = Hashtbl.fold (fun f () acc -> f :: acc) seen [] in
  Alcotest.(check (list string))
    "all generator features exercised"
    (List.sort compare Randprog.feature_universe)
    (List.sort compare covered)

let test_generated_programs_parse () =
  List.iter
    (fun arch ->
      for seed = 1 to 20 do
        let gen = Randprog.generate_for ~arch ~seed in
        match P4.Parser.parse_program gen.Randprog.src with
        | _ -> ()
        | exception P4.Parser.Error (msg, _) ->
            Alcotest.failf "%s seed %d does not parse: %s\n%s"
              (Randprog.arch_name arch) seed msg gen.Randprog.src
      done)
    Randprog.all_archs

(* ------------------------------------------------------------------ *)
(* Reducer: hand-built oversized programs that fail differentially
   under a seeded simulator fault.  The reducer must preserve the
   failure kind, be deterministic, and actually shrink. *)

(* v1model: three headers, a select parser, and plenty of junk the
   reducer should strip; fails under [Drop_second_emit] whenever more
   than one header is emitted *)
let oversized_v1model =
  {|
header eth_t { bit<48> dst; bit<48> src; bit<16> etype; }
header ipv4ish_t { bit<8> ttl; bit<8> proto; bit<16> csum; bit<32> saddr; bit<32> daddr; }
header extra_t { bit<8> a; bit<16> b; bit<24> c; }
header pad_t { bit<16> x; bit<8> y; }
struct headers_t { eth_t eth; ipv4ish_t ipv4; extra_t extra; pad_t pad; }
struct meta_t { bit<16> m0; bit<8> m1; bit<32> m2; bit<4> m3; }

parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
  state start {
    pkt.extract(hdr.eth);
    transition select(hdr.eth.etype) {
      0x0800: parse_ipv4;
      0x1234: parse_extra;
      default: accept;
    }
  }
  state parse_ipv4 {
    pkt.extract(hdr.ipv4);
    transition select(hdr.ipv4.proto) {
      0x11: parse_pad;
      default: accept;
    }
  }
  state parse_extra {
    pkt.extract(hdr.extra);
    transition accept;
  }
  state parse_pad {
    pkt.extract(hdr.pad);
    transition accept;
  }
}

control V(inout headers_t hdr, inout meta_t meta) {
  apply { }
}

control I(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
  apply {
    meta.m0 = 3;
    meta.m1 = 7;
    meta.m2 = 19;
    meta.m3 = 1;
    if (hdr.ipv4.isValid()) {
      hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
      hdr.ipv4.daddr = hdr.ipv4.saddr;
      hdr.ipv4.csum = meta.m0 + 5;
      if (hdr.pad.isValid()) {
        hdr.pad.x = hdr.ipv4.csum;
        hdr.pad.y = 9;
      }
    }
    if (hdr.extra.isValid()) {
      hdr.extra.b = meta.m0;
      hdr.extra.c = 0x00AA55;
      hdr.extra.a = hdr.extra.a + 1;
    }
    hdr.eth.dst = hdr.eth.src;
    hdr.eth.src[15:0] = meta.m0;
    meta.m2 = meta.m2 + 1;
    sm.egress_spec = 2;
  }
}

control E(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
  apply { }
}

control C(inout headers_t hdr, inout meta_t meta) {
  apply { }
}

control D(packet_out pkt, in headers_t hdr) {
  apply {
    pkt.emit(hdr.eth);
    pkt.emit(hdr.ipv4);
    pkt.emit(hdr.extra);
    pkt.emit(hdr.pad);
  }
}

V1Switch(P(), V(), I(), E(), C(), D()) main;
|}

(* ebpf: two extracted headers plus junk; the model emits every valid
   header, so [Drop_second_emit] truncates the output *)
let oversized_ebpf =
  {|
header eth_t { bit<48> dst; bit<48> src; bit<16> etype; }
header extra_t { bit<8> a; bit<16> b; bit<24> c; }
header tail_t { bit<8> t0; bit<8> t1; }
struct headers_t { eth_t eth; extra_t extra; tail_t tail; }

parser prs(packet_in pkt, out headers_t hdr) {
  state start {
    pkt.extract(hdr.eth);
    transition select(hdr.eth.etype) {
      0x1234: parse_extra;
      0x5678: parse_tail;
      default: parse_extra;
    }
  }
  state parse_extra {
    pkt.extract(hdr.extra);
    transition select(hdr.extra.a) {
      0xFF: parse_tail;
      default: accept;
    }
  }
  state parse_tail {
    pkt.extract(hdr.tail);
    transition accept;
  }
}

control pipe(inout headers_t hdr, out bool pass) {
  apply {
    pass = true;
    if (hdr.extra.isValid()) {
      hdr.extra.b = hdr.extra.b + 1;
      hdr.extra.a = 5;
      hdr.extra.c = hdr.extra.c - 3;
    }
    if (hdr.tail.isValid()) {
      hdr.tail.t0 = hdr.tail.t1;
      hdr.tail.t1 = 0x2A;
    }
    hdr.eth.dst = hdr.eth.src;
    hdr.eth.dst[8:0] = 17;
    hdr.eth.src[15:0] = hdr.eth.etype;
  }
}

ebpfFilter(prs(), pipe()) main;
|}

let fault = Sim.Mutation.Drop_second_emit

(* "still fails the same way" — the campaign's own reduction predicate *)
let keep ~arch ~kind src =
  match Campaign.run_pipeline ~fault ~arch ~seed:3 ~max_tests:10 src with
  | Campaign.Diff (k, _) -> k = kind
  | Campaign.All_pass _ -> false

let reduce_case name ~arch ~max_lines src () =
  let kind =
    match Campaign.run_pipeline ~fault ~arch ~seed:3 ~max_tests:10 src with
    | Campaign.Diff (k, _) -> k
    | Campaign.All_pass _ ->
        Alcotest.failf "%s: oversized program does not fail under the seeded fault" name
  in
  Alcotest.(check string) "fails as wrong_output" "wrong_output" kind;
  let keep = keep ~arch ~kind in
  let o1 = Reduce.reduce ~keep src in
  (* predicate preservation *)
  Alcotest.(check bool) "reduced program still fails the same way" true
    (keep o1.Reduce.reduced);
  (* determinism *)
  let o2 = Reduce.reduce ~keep src in
  Alcotest.(check string) "reduction is deterministic" o1.Reduce.reduced o2.Reduce.reduced;
  (* measured shrink: the junk must go, down to near the architecture's
     irreducible skeleton *)
  let before = Reduce.line_count src and after = Reduce.line_count o1.Reduce.reduced in
  Alcotest.(check bool)
    (Printf.sprintf "removes at least 15 lines (%d -> %d)" before after)
    true
    (before - after >= 15);
  Alcotest.(check bool)
    (Printf.sprintf "repro is near the skeleton floor (%d <= %d lines)" after max_lines)
    true (after <= max_lines)

(* a reduction whose predicate rejects everything must return the
   original program unchanged *)
let test_reduce_noop () =
  let src = oversized_ebpf in
  let o = Reduce.reduce ~keep:(fun _ -> false) src in
  Alcotest.(check string) "nothing accepted -> original back" src o.Reduce.reduced;
  Alcotest.(check int) "no steps taken" 0 o.Reduce.steps

(* ------------------------------------------------------------------ *)
(* End-to-end: a campaign over a faulted simulator must detect the
   fault and auto-reduce the first failure to a small repro that still
   exposes it. *)

let test_seeded_fault_campaign () =
  let cfg =
    {
      Campaign.default_config with
      Campaign.cases = 6;
      seed = 7;
      archs = [ Randprog.Ebpf ];
      max_tests = 10;
      fault;
      reduce = true;
      reduce_limit = 1;
    }
  in
  let s = Campaign.run cfg in
  Alcotest.(check bool) "fault detected" true (s.Campaign.s_failures <> []);
  let f = List.hd s.Campaign.s_failures in
  match f.Campaign.f_reduced with
  | None -> Alcotest.fail "first failure was not reduced"
  | Some r ->
      let lines = Reduce.line_count r.Reduce.reduced in
      Alcotest.(check bool)
        (Printf.sprintf "repro is at most 40 lines (%d)" lines)
        true (lines <= 40);
      Alcotest.(check bool) "repro still exposes the fault" true
        (keep ~arch:f.Campaign.f_arch ~kind:f.Campaign.f_kind r.Reduce.reduced)

(* ------------------------------------------------------------------ *)
(* Sequence campaign: 2–3-packet cases validate on the model, and the
   summary folds bit-identically for jobs=1 and jobs=2 *)

let test_sequence_campaign_deterministic () =
  let cfg jobs =
    {
      Campaign.default_config with
      Campaign.cases = 8;
      jobs;
      seed = 11;
      archs = [ Randprog.V1model ];
      max_tests = 8;
      reduce = false;
      sequences = true;
    }
  in
  let s1 = Campaign.run (cfg 1) in
  let s2 = Campaign.run (cfg 2) in
  Alcotest.(check (list string)) "no failures"
    []
    (List.map (fun f -> f.Campaign.f_detail) s1.Campaign.s_failures);
  Alcotest.(check string) "summary identical across jobs"
    (Campaign.summary_line s1) (Campaign.summary_line s2);
  Alcotest.(check bool) "sequence cases counted" true
    (Obs.Snapshot.get_int s1.Campaign.s_obs "selftest.sequence_cases" = 8)

(* the campaign reports each case's explorer and solver metrics, not
   only its own selftest.* counters; counters sum, so they agree for
   any [jobs] *)
let test_campaign_metrics_merge () =
  let cfg jobs =
    { Campaign.default_config with Campaign.cases = 12; jobs; seed = 5; reduce = false }
  in
  let s1 = Campaign.run (cfg 1) in
  let s2 = Campaign.run (cfg 2) in
  List.iter
    (fun name ->
      let n = Obs.Snapshot.get_int s1.Campaign.s_obs name in
      Alcotest.(check bool) (Printf.sprintf "%s = %d > 0" name n) true (n > 0))
    [ "explore.paths"; "solver.checks" ];
  Alcotest.(check (list (pair string int)))
    "counters identical across jobs"
    (Obs.Snapshot.counters s1.Campaign.s_obs)
    (Obs.Snapshot.counters s2.Campaign.s_obs)

(* Every path of this program ends with a random egress port, so every
   path is dropped for taint and none is a test: [max_tests] alone never
   stops a run.  Twelve independent branches give it 16,384 paths. *)
let all_tainted =
  let fields = List.init 12 (fun k -> Printf.sprintf "bit<8> f%d;" k) in
  let branches =
    List.init 12 (fun k -> Printf.sprintf "    if (hdr.h.f%d == %d) { hdr.h.f%d = 0; }" k (k + 1) k)
  in
  Printf.sprintf
    {|
header h_t { %s }
struct headers_t { h_t h; }
struct meta_t { bit<9> p; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t m,
         inout standard_metadata_t sm) {
  state start { pkt.extract(hdr.h); transition accept; }
}
control V(inout headers_t hdr, inout meta_t m) { apply { } }
control I(inout headers_t hdr, inout meta_t m,
          inout standard_metadata_t sm) {
  apply {
%s
    random(m.p, 0, 511);
    sm.egress_spec = m.p;
  }
}
control E(inout headers_t hdr, inout meta_t m,
          inout standard_metadata_t sm) { apply { } }
control C(inout headers_t hdr, inout meta_t m) { apply { } }
control D(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.h); } }
V1Switch(P(), V(), I(), E(), C(), D()) main;
|}
    (String.concat " " fields) (String.concat "\n" branches)

(* case 0 runs every invariant: the seed-determinism pair and the Rnd
   and Dfs strategy runs.  Each must stop at the campaign's 384-path
   cap instead of walking all 16,384 paths. *)
let test_invariants_capped () =
  let obs = Obs.Registry.create () in
  let verdict =
    Campaign.check_invariants ~obs ~arch:"v1model" ~seed:1 ~max_tests:12 ~seq_packets:1 ~i:0
      all_tainted
  in
  Alcotest.(check (option (pair string string))) "invariants hold" None verdict;
  let d = Obs.Registry.snapshot obs in
  let paths = Obs.Snapshot.get_int d "explore.paths" in
  Alcotest.(check int) "every path dropped for taint" paths
    (Obs.Snapshot.get_int d "explore.discarded_taint");
  Alcotest.(check bool) (Printf.sprintf "%d paths over four runs <= 4 x 384" paths) true
    (paths > 0 && paths <= 4 * 384)

(* a case's invariant re-runs report under "invariant.": the case's
   [explore.*] is its main run alone, and [invariant.explore.*] is what
   the invariants report on their own.  Case 0 runs all three. *)
let test_invariant_prefix () =
  let cfg = { Campaign.default_config with Campaign.reduce = false } in
  let seed = Campaign.case_seed cfg.Campaign.seed 0 in
  let src = (Randprog.generate_for ~arch:Randprog.V1model ~seed).Randprog.src in
  let reg = Obs.Registry.create () in
  let r, _ =
    Campaign.eval_case cfg reg ~i:0 ~seed ~arch_name:"v1model" ~src ~features:[]
  in
  Alcotest.(check bool) "the case passes" true (r.Campaign.r_failure = None);
  let d = Obs.Registry.snapshot reg in
  let main =
    let opts = { Testgen.Runtime.default_options with seed } in
    let config =
      { Campaign.campaign_explore with Testgen.Explore.max_tests = Some cfg.Campaign.max_tests }
    in
    (Testgen.Oracle.generate ~opts ~config Targets.V1model.target src).Testgen.Oracle.result
      .Testgen.Explore.obs
  in
  let alone = Obs.Registry.create () in
  ignore
    (Campaign.check_invariants ~obs:alone ~arch:"v1model" ~seed ~max_tests:cfg.Campaign.max_tests
       ~seq_packets:1 ~i:0 src);
  let invariant_paths = Obs.Snapshot.get_int d "invariant.explore.paths" in
  Alcotest.(check bool) (Printf.sprintf "invariant.explore.paths = %d > 0" invariant_paths) true
    (invariant_paths > 0);
  Alcotest.(check int) "invariant.explore.paths is the invariants' own"
    (Obs.Snapshot.get_int (Obs.Registry.snapshot alone) "explore.paths")
    invariant_paths;
  Alcotest.(check int) "explore.paths is the main run's"
    (Obs.Snapshot.get_int main "explore.paths")
    (Obs.Snapshot.get_int d "explore.paths")

let () =
  Alcotest.run "selftest"
    [
      ( "generator",
        [
          Alcotest.test_case "feature coverage" `Quick test_feature_coverage;
          Alcotest.test_case "programs parse" `Quick test_generated_programs_parse;
        ] );
      ( "reducer",
        [
          (* the V1Switch skeleton alone is ~45 non-blank lines *)
          Alcotest.test_case "v1model oversized repro" `Quick
            (reduce_case "v1model" ~arch:"v1model" ~max_lines:46 oversized_v1model);
          Alcotest.test_case "ebpf oversized repro" `Quick
            (reduce_case "ebpf" ~arch:"ebpf_model" ~max_lines:30 oversized_ebpf);
          Alcotest.test_case "rejecting predicate is a no-op" `Quick test_reduce_noop;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "seeded fault detected and reduced" `Quick
            test_seeded_fault_campaign;
          Alcotest.test_case "sequence cases deterministic across jobs" `Quick
            test_sequence_campaign_deterministic;
          Alcotest.test_case "case metrics merge across jobs" `Quick
            test_campaign_metrics_merge;
          Alcotest.test_case "invariant runs capped" `Quick test_invariants_capped;
          Alcotest.test_case "invariant runs under their own prefix" `Quick
            test_invariant_prefix;
        ] );
    ]
