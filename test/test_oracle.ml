(* End-to-end oracle tests on the paper's running examples (§3).

   Fig. 1a: forwarding on EtherType — expect four kinds of tests:
   miss/default, hit set_out, hit noop, and a short-packet path where
   the tainted key forces the default action.

   Fig. 1b: checksum validation — expect an invalid-header path, a
   checksum-ok path (concolic), and a checksum-mismatch drop path. *)

module Bits = Bitv.Bits
module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Testspec = Testgen.Testspec

let fig1a =
  {|
header ethernet_t {
  bit<48> dst;
  bit<48> src;
  bit<16> etype;
}
struct headers_t { ethernet_t eth; }
struct meta_t { bit<9> output_port; }

parser MyParser(packet_in pkt, out headers_t hdr, inout meta_t meta,
                inout standard_metadata_t sm) {
  state start {
    pkt.extract(hdr.eth);
    transition accept;
  }
}
control MyVerify(inout headers_t hdr, inout meta_t meta) { apply { } }
control MyIngress(inout headers_t h, inout meta_t meta,
                  inout standard_metadata_t sm) {
  action noop() { }
  action set_out(bit<9> port) {
    meta.output_port = port;
    sm.egress_spec = port;
  }
  table forward_table {
    key = { h.eth.etype : exact @name("etype"); }
    actions = { noop; set_out; }
    default_action = noop();
  }
  apply {
    h.eth.etype = 0xBEEF;
    forward_table.apply();
  }
}
control MyEgress(inout headers_t h, inout meta_t meta,
                 inout standard_metadata_t sm) { apply { } }
control MyCompute(inout headers_t hdr, inout meta_t meta) { apply { } }
control MyDeparser(packet_out pkt, in headers_t hdr) {
  apply { pkt.emit(hdr.eth); }
}
V1Switch(MyParser(), MyVerify(), MyIngress(), MyEgress(), MyCompute(), MyDeparser()) main;
|}

let fig1b =
  {|
header ethernet_t {
  bit<48> dst;
  bit<48> src;
  bit<16> etype;
}
struct headers_t { ethernet_t eth; }
struct meta_t { bit<1> checksum_err; }

parser MyParser(packet_in pkt, out headers_t hdr, inout meta_t meta,
                inout standard_metadata_t sm) {
  state start {
    pkt.extract(hdr.eth);
    transition accept;
  }
}
control MyVerify(inout headers_t hdr, inout meta_t meta) {
  apply {
    meta.checksum_err = verify_checksum(hdr.eth.isValid(),
                                        {hdr.eth.dst, hdr.eth.src},
                                        hdr.eth.etype, HashAlgorithm.csum16);
  }
}
control MyIngress(inout headers_t hdr, inout meta_t meta,
                  inout standard_metadata_t sm) {
  apply {
    if (meta.checksum_err == 1) {
      mark_to_drop(sm);
    }
  }
}
control MyEgress(inout headers_t h, inout meta_t meta,
                 inout standard_metadata_t sm) { apply { } }
control MyCompute(inout headers_t hdr, inout meta_t meta) { apply { } }
control MyDeparser(packet_out pkt, in headers_t hdr) {
  apply { pkt.emit(hdr.eth); }
}
V1Switch(MyParser(), MyVerify(), MyIngress(), MyEgress(), MyCompute(), MyDeparser()) main;
|}

let generate ?opts src =
  let run = Oracle.generate ?opts Targets.V1model.target src in
  run

let test_fig1a () =
  let run = generate fig1a in
  let tests = run.Oracle.result.Explore.tests in
  Printf.printf "fig1a: %d tests\n" (List.length tests);
  List.iter (fun t -> print_endline (Testspec.to_string t)) tests;
  Alcotest.(check bool) "at least 4 tests" true (List.length tests >= 4);
  (* coverage should be complete *)
  let cov = Oracle.coverage_report run in
  Alcotest.(check (list int)) "full coverage" [] cov.uncovered;
  (* some test must carry a synthesized entry matching 0xBEEF *)
  let has_beef_entry =
    List.exists
      (fun (t : Testspec.t) ->
        List.exists
          (fun (e : Testspec.entry) ->
            e.e_table = "forward_table"
            && List.exists
                 (fun (k, m) ->
                   k = "etype"
                   && match m with Testspec.MExact v -> Bits.to_int v = 0xBEEF | _ -> false)
                 e.e_keys)
          t.entries)
      tests
  in
  Alcotest.(check bool) "entry key folds to 0xBEEF" true has_beef_entry;
  (* a short-packet test exists: input smaller than the ethernet header *)
  let has_short =
    List.exists (fun (t : Testspec.t) -> Bits.width (Testspec.input t).data < 112) tests
  in
  Alcotest.(check bool) "short-packet test" true has_short;
  (* every full-header test input must be exactly the ethernet header *)
  let full = List.filter (fun (t : Testspec.t) -> Bits.width (Testspec.input t).data = 112) tests in
  Alcotest.(check bool) "some full-size tests" true (full <> [])

let test_fig1b () =
  let run = generate fig1b in
  let tests = run.Oracle.result.Explore.tests in
  Printf.printf "fig1b: %d tests\n" (List.length tests);
  List.iter (fun t -> print_endline (Testspec.to_string t)) tests;
  Alcotest.(check bool) "at least 3 tests" true (List.length tests >= 3);
  (* drop test: checksum mismatch *)
  let drops = List.filter Testspec.is_drop tests in
  Alcotest.(check bool) "has drop test" true (drops <> []);
  (* checksum-ok test: the etype field equals the checksum of dst++src *)
  let ok =
    List.exists
      (fun (t : Testspec.t) ->
        (not (Testspec.is_drop t))
        && Bits.width (Testspec.input t).data = 112
        &&
        let data = Bits.slice (Testspec.input t).data ~hi:111 ~lo:16 in
        let etype = Bits.slice (Testspec.input t).data ~hi:15 ~lo:0 in
        Bits.equal etype (Targets.Checksums.csum16 data))
      tests
  in
  Alcotest.(check bool) "concolic checksum binds" true ok

(* ------------------------------------------------------------------ *)
(* eBPF filter (§6.1.3) *)

let ebpf_filter =
  {|
header ethernet_t {
  bit<48> dst;
  bit<48> src;
  bit<16> etype;
}
struct headers_t { ethernet_t eth; }

parser prs(packet_in pkt, out headers_t hdr) {
  state start {
    pkt.extract(hdr.eth);
    transition accept;
  }
}
control pipe(inout headers_t hdr, out bool pass) {
  apply {
    if (hdr.eth.etype == 0x0800) {
      pass = true;
    } else {
      pass = false;
    }
  }
}
ebpfFilter(prs(), pipe()) main;
|}

let test_ebpf () =
  let run = Testgen.Oracle.generate Targets.Ebpf.target ebpf_filter in
  let tests = run.Oracle.result.Explore.tests in
  Printf.printf "ebpf: %d tests\n" (List.length tests);
  List.iter (fun t -> print_endline (Testspec.to_string t)) tests;
  (* pass, drop-by-filter, drop-by-short-packet *)
  Alcotest.(check bool) "3 tests" true (List.length tests >= 3);
  let passes = List.filter (fun t -> not (Testspec.is_drop t)) tests in
  let drops = List.filter Testspec.is_drop tests in
  Alcotest.(check bool) "has pass" true (passes <> []);
  Alcotest.(check bool) "has drops" true (List.length drops >= 2);
  (* the passing test must carry EtherType 0x0800 and echo the packet *)
  List.iter
    (fun (t : Testspec.t) ->
      Alcotest.(check int) "pass etype" 0x0800
        (Bits.to_int (Bits.slice (Testspec.input t).data ~hi:15 ~lo:0));
      let out = List.hd (Testspec.outputs t) in
      Alcotest.(check bool) "filter echoes packet" true (Bits.equal out.data (Testspec.input t).data))
    passes;
  let cov = Oracle.coverage_report run in
  Alcotest.(check (list int)) "ebpf full coverage" [] cov.uncovered

(* ------------------------------------------------------------------ *)
(* TNA two-pipe program (§6.1.2) *)

let tna_program =
  {|
header ethernet_t {
  bit<48> dst;
  bit<48> src;
  bit<16> etype;
}
struct headers_t { ethernet_t eth; }
struct meta_t { bit<8> scratch; }

parser IgParser(packet_in pkt, out headers_t hdr, out meta_t md,
                out ingress_intrinsic_metadata_t ig_intr_md) {
  state start {
    pkt.extract(ig_intr_md);
    transition parse_eth;
  }
  state parse_eth {
    pkt.extract(hdr.eth);
    transition accept;
  }
}
control Ig(inout headers_t hdr, inout meta_t md,
           in ingress_intrinsic_metadata_t ig_intr_md,
           in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
           inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
           inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
  action fwd(bit<9> port) { ig_tm_md.ucast_egress_port = port; }
  action drop() { ig_dprsr_md.drop_ctl = 1; }
  table l2 {
    key = { hdr.eth.dst : exact @name("dst"); }
    actions = { fwd; drop; }
    default_action = drop();
  }
  apply {
    l2.apply();
  }
}
control IgDeparser(packet_out pkt, inout headers_t hdr, in meta_t md,
                   in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {
  apply { pkt.emit(hdr.eth); }
}
parser EgParser(packet_in pkt, out headers_t hdr, out meta_t md,
                out egress_intrinsic_metadata_t eg_intr_md) {
  state start {
    pkt.extract(eg_intr_md);
    pkt.extract(hdr.eth);
    transition accept;
  }
}
control Eg(inout headers_t hdr, inout meta_t md,
           in egress_intrinsic_metadata_t eg_intr_md,
           in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
           inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
           inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {
  apply {
    hdr.eth.src = 0xC0FFEE000001;
  }
}
control EgDeparser(packet_out pkt, inout headers_t hdr, in meta_t md,
                   in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {
  apply { pkt.emit(hdr.eth); }
}
Switch(Pipeline(IgParser(), Ig(), IgDeparser(), EgParser(), Eg(), EgDeparser())) main;
|}

let test_tna () =
  let run = Testgen.Oracle.generate Targets.Tna.target tna_program in
  let tests = run.Oracle.result.Explore.tests in
  Printf.printf "tna: %d tests\n" (List.length tests);
  List.iter (fun t -> print_endline (Testspec.to_string t)) tests;
  Alcotest.(check bool) "tests generated" true (List.length tests >= 2);
  let fwd = List.filter (fun t -> not (Testspec.is_drop t)) tests in
  Alcotest.(check bool) "has forwarded test" true (fwd <> []);
  List.iter
    (fun (t : Testspec.t) ->
      (* 64-byte minimum frame (Tbl. 6) *)
      Alcotest.(check bool) "64B minimum" true (Bits.width (Testspec.input t).data >= 64 * 8);
      let out = List.hd (Testspec.outputs t) in
      (* the egress rewrote the source MAC *)
      let src = Bits.slice out.data ~hi:(Bits.width out.data - 49) ~lo:(Bits.width out.data - 96) in
      Alcotest.(check string) "egress rewrite" "C0FFEE000001" (Bits.to_hex src))
    fwd;
  (* the drop-by-default-action test exists *)
  Alcotest.(check bool) "has drop test" true (List.exists Testspec.is_drop tests)

(* ------------------------------------------------------------------ *)
(* Re-entrancy: every [instantiate] owns its term context, so runs can
   interleave and even execute on different domains. *)

let tests_of (run : Oracle.run) =
  List.map Testspec.to_string run.Oracle.result.Explore.tests

let test_interleaved_prepare () =
  (* reference: sequential, non-interleaved runs *)
  let ref_a = tests_of (generate fig1a) in
  let ref_b = tests_of (generate fig1b) in
  (* interleaved: instantiate both runs up front, then explore B before
     A.  A's terms and solver state must stay valid while B explores. *)
  let ctx_a, sta = Oracle.instantiate (Oracle.prepare Targets.V1model.target fig1a) in
  let ctx_b, stb = Oracle.instantiate (Oracle.prepare Targets.V1model.target fig1b) in
  let rb = Explore.run ctx_b stb in
  let ra = Explore.run ctx_a sta in
  let got_a = List.map Testspec.to_string ra.Explore.tests in
  let got_b = List.map Testspec.to_string rb.Explore.tests in
  Alcotest.(check (list string)) "run A unaffected by interleaving" ref_a got_a;
  Alcotest.(check (list string)) "run B unaffected by interleaving" ref_b got_b

let test_concurrent_domains () =
  (* two generate runs on different domains at once; each must match
     its sequential reference (seed-deterministic) *)
  let ref_a = tests_of (generate fig1a) in
  let ref_b = tests_of (Oracle.generate Targets.Ebpf.target ebpf_filter) in
  let da = Domain.spawn (fun () -> tests_of (generate fig1a)) in
  let db =
    Domain.spawn (fun () -> tests_of (Oracle.generate Targets.Ebpf.target ebpf_filter))
  in
  Alcotest.(check (list string)) "domain A deterministic" ref_a (Domain.join da);
  Alcotest.(check (list string)) "domain B deterministic" ref_b (Domain.join db)

let batch_jobs () =
  [
    Oracle.job ~label:"fig1a" Targets.V1model.target fig1a;
    Oracle.job ~label:"fig1b" Targets.V1model.target fig1b;
    Oracle.job ~label:"ebpf" Targets.Ebpf.target ebpf_filter;
    Oracle.job ~label:"tna" Targets.Tna.target tna_program;
  ]

let batch_tests (b : Oracle.batch) =
  List.map
    (fun (label, o) ->
      match o with
      | Oracle.Finished r -> (label, tests_of r)
      | Oracle.Failed msg -> Alcotest.fail (label ^ " failed: " ^ msg))
    b.Oracle.outcomes

let test_batch_determinism () =
  let b1 = Oracle.generate_batch ~jobs:1 (batch_jobs ()) in
  let b4 = Oracle.generate_batch ~jobs:4 (batch_jobs ()) in
  let t1 = batch_tests b1 and t4 = batch_tests b4 in
  List.iter2
    (fun (l1, ts1) (l4, ts4) ->
      Alcotest.(check string) "label order" l1 l4;
      Alcotest.(check (list string)) (l1 ^ " identical across jobs") ts1 ts4)
    t1 t4;
  (* merged stats cover every job regardless of scheduling *)
  Alcotest.(check int) "merged paths equal"
    b1.Oracle.merged_stats.Explore.paths b4.Oracle.merged_stats.Explore.paths;
  Alcotest.(check int) "merged tests equal"
    b1.Oracle.merged_stats.Explore.tests b4.Oracle.merged_stats.Explore.tests

(* ------------------------------------------------------------------ *)
(* Front-end errors: every rejection is a positioned, structured error *)

let v1model = Targets.V1model.target

(* [s] with the first occurrence of [sub] replaced by [by] *)
let replace sub by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("replace: no " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let middleblock () = Progzoo.Generators.middleblock ~acl_stages:2 ()

(* literals that do not fit an OCaml int, or have no digits; each sits
   at line 2, column 19 *)
let literal_sources =
  List.map
    (fun lit -> "header h_t { bit<8> f; }\nconst bit<64> k = " ^ lit ^ ";\n")
    [
      "64w0xFFFFFFFFFFFFFFFF";
      "12345678901234567890";
      "128w0x20010db8000000000000000000000001";
      "0x";
    ]

(* an action list whose parameter binding never closes *)
let unclosed_sources =
  [
    "control c() { action a() { } table t { actions = { a(; } } apply { t.apply(); } }";
    replace "rewrite; nexthop_miss;" "rewrite; nex(hop_miss;" (middleblock ());
  ]

let test_parse_errors_positioned () =
  let positioned name = function
    | Error (Oracle.Parse_error { line; col; _ }) ->
        Alcotest.(check bool) (name ^ ": positioned") true (line >= 1 && col >= 1);
        (line, col)
    | Error e -> Alcotest.failf "%s: wrong error: %s" name (Oracle.prepare_error_message e)
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  List.iteri
    (fun i src ->
      ignore (positioned (Printf.sprintf "unclosed %d" i) (Oracle.prepare_result v1model src)))
    unclosed_sources;
  List.iteri
    (fun i src ->
      let name = Printf.sprintf "literal %d" i in
      let at = Alcotest.(pair int int) in
      Alcotest.check at (name ^ ": prepare_result at the literal") (2, 19)
        (positioned name (Oracle.prepare_result v1model src));
      Alcotest.check at (name ^ ": fingerprint at the literal") (2, 19)
        (positioned name (Oracle.fingerprint ~arch:"v1model" src)))
    literal_sources

let test_uninstantiable_rejected () =
  (* parses and types, but the package names a control that does not
     exist: the target's init rejects it *)
  let src = replace "E(), C(), D())" "E(), C(), Q())" (middleblock ()) in
  match Oracle.prepare_result v1model src with
  | Error (Oracle.Arch_error msg) ->
      Alcotest.(check string) "arch error" "v1model: unknown control Q" msg
  | Error e -> Alcotest.failf "wrong error: %s" (Oracle.prepare_error_message e)
  | Ok _ -> Alcotest.fail "an uninstantiable program was prepared"

(* ------------------------------------------------------------------ *)
(* The calling convention: [inout] and [out] block parameters are bound
   by reference to the pipeline's storage, [in] parameters get a
   private copy.  Each generated suite is also replayed on the concrete
   model, whose blocks copy in and copy out. *)

module Runtime = Testgen.Runtime

(* the first completed path in DFS order that satisfies [want]; branch
   conditions are not checked, since where storage lives does not
   depend on which branches are feasible *)
let rec first_path ctx st want =
  match Testgen.Step.step ctx st with
  | exception Runtime.Exec_error _ -> None
  | None -> if want st then Some st else None
  | Some branches ->
      List.find_map (fun (b : Runtime.branch) -> first_path ctx b.br_state want) branches

let path_through_deparser src deparser =
  let ctx, st = Oracle.instantiate (Oracle.prepare v1model src) in
  match first_path ctx st (fun st -> List.mem ("enter control " ^ deparser) st.Runtime.trace) with
  | Some st -> (ctx, st)
  | None -> Alcotest.fail "no path reaches the deparser"

let replay_passes name src (run : Oracle.run) =
  let tests = run.Oracle.result.Explore.tests in
  let sim = Sim.Harness.prepare ~arch:"v1model" src in
  let summary, results = Sim.Harness.run_suite sim tests in
  List.iter
    (fun ((t : Testspec.t), v) ->
      match v with
      | Sim.Harness.Pass -> ()
      | Sim.Harness.Wrong_output msg | Sim.Harness.Crash msg ->
          Alcotest.failf "%s: %s\n%s" name msg (Testspec.to_string t))
    results;
  Alcotest.(check int) (name ^ ": every test passes on the model") summary.Sim.Harness.total
    summary.Sim.Harness.passed

(* the output packets of a suite, as (port, data) *)
let outputs run =
  List.concat_map
    (fun t ->
      List.map
        (fun (o : Testspec.packet) -> (Bits.to_int o.port, o.data))
        (Testspec.outputs t))
    run.Oracle.result.Explore.tests

(* a block's [$f_<block>@n] prefix names its private storage: none may
   hold an [inout] or [out] parameter *)
let test_no_private_copies () =
  let src = middleblock () in
  let ctx, st = path_through_deparser src "D" in
  let by_reference block param =
    let params =
      match Hashtbl.find_opt ctx.Runtime.controls block with
      | Some cd -> cd.P4.Ast.c_params
      | None -> (
          match Hashtbl.find_opt ctx.Runtime.parsers block with
          | Some pd -> pd.P4.Ast.p_params
          | None -> [])
    in
    List.exists
      (fun (p : P4.Ast.param) ->
        p.par_name = param && (p.par_dir = P4.Ast.DirInOut || p.par_dir = P4.Ast.DirOut))
      params
  in
  let private_params =
    Runtime.Env.fold
      (fun key _ acc ->
        match String.index_opt key '@' with
        | Some at when String.starts_with ~prefix:"$f_" key -> (
            let block = String.sub key 3 (at - 3) in
            match String.split_on_char '.' key with
            | _ :: param :: _ when by_reference block param -> key :: acc
            | _ -> acc)
        | _ -> acc)
      st.Runtime.env []
  in
  Alcotest.(check (list string)) "no private copy of an inout or out parameter" []
    (List.rev private_params);
  Alcotest.(check bool) "the ingress ran" true (List.mem "enter control I" st.Runtime.trace)

let eth_program ~ingress ~deparser =
  Printf.sprintf
    {|
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etype; }
struct headers_t { ethernet_t eth; }
struct meta_t { bit<8> unused; }
parser MyParser(packet_in pkt, out headers_t hdr, inout meta_t meta,
                inout standard_metadata_t sm) {
  state start { pkt.extract(hdr.eth); transition accept; }
}
control MyVerify(inout headers_t hdr, inout meta_t meta) { apply { } }
control MyIngress(inout headers_t hdr, inout meta_t meta,
                  inout standard_metadata_t sm) {
%s
}
control MyEgress(inout headers_t hdr, inout meta_t meta,
                 inout standard_metadata_t sm) { apply { } }
control MyCompute(inout headers_t hdr, inout meta_t meta) { apply { } }
control MyDeparser(packet_out pkt, in headers_t hdr) {
  apply { %s }
}
V1Switch(MyParser(), MyVerify(), MyIngress(), MyEgress(), MyCompute(), MyDeparser()) main;
|}
    ingress deparser

(* the 48 source-address bits of an output that starts with ethernet *)
let src_field data =
  let w = Bits.width data in
  Bits.slice data ~hi:(w - 49) ~lo:(w - 96)

let test_in_param_stays_private () =
  let src =
    eth_program ~ingress:"apply { sm.egress_spec = 1; }"
      ~deparser:"hdr.eth.src = 0; pkt.emit(hdr.eth);"
  in
  let run = generate src in
  let outs = List.filter (fun (_, d) -> Bits.width d >= 112) (outputs run) in
  Alcotest.(check bool) "some test emits the header" true (outs <> []);
  List.iter
    (fun (_, d) -> Alcotest.(check bool) "emitted source is 0" true (Bits.is_zero (src_field d)))
    outs;
  replay_passes "in parameter" src run;
  (* the write landed in the deparser's copy: the pipeline's header
     still holds the extracted input bits *)
  let _, st = path_through_deparser src "MyDeparser" in
  match Runtime.Env.find_opt "$pipe.hdr.eth.src" st.Runtime.env with
  | Some v ->
      Alcotest.(check bool) "pipeline source is the input, not 0" true
        (Smt.Expr.is_const v = None)
  | None -> Alcotest.fail "no $pipe.hdr.eth.src"

let test_inout_write_then_exit () =
  let src =
    eth_program
      ~ingress:
        {|  action stop() { hdr.eth.dst = 1; sm.egress_spec = 2; exit; }
  apply {
    if (hdr.eth.etype == 0x0800) { stop(); }
    sm.egress_spec = 3;
  }|}
      ~deparser:"pkt.emit(hdr.eth);"
  in
  let run = generate src in
  let stopped = List.filter (fun (port, _) -> port = 2) (outputs run) in
  Alcotest.(check bool) "a test leaves by exit" true (stopped <> []);
  List.iter
    (fun (_, d) ->
      let w = Bits.width d in
      Alcotest.(check int) "the write before exit is emitted" 1
        (Bits.to_int (Bits.slice d ~hi:(w - 1) ~lo:(w - 48))))
    stopped;
  Alcotest.(check bool) "other tests fall through" true
    (List.exists (fun (port, _) -> port = 3) (outputs run));
  replay_passes "inout write then exit" src run

let test_parser_error_reaches_ingress () =
  let src =
    eth_program
      ~ingress:
        {|  apply {
    if (sm.parser_error == error.PacketTooShort) { sm.egress_spec = 7; }
    else { sm.egress_spec = 1; }
  }|}
      ~deparser:"pkt.emit(hdr.eth);"
  in
  let run = generate src in
  let ports = List.map fst (outputs run) in
  Alcotest.(check bool) "a short packet's error reaches the ingress" true (List.mem 7 ports);
  Alcotest.(check bool) "a parsed packet sees no error" true (List.mem 1 ports);
  replay_passes "parser error" src run

(* verify_checksum writes standard metadata behind the frame: a block
   that takes standard metadata as an argument never sees the flag,
   as under copy-in/copy-out, where the write would also be overwritten
   at the block's exit *)
let test_extern_write_behind_frame () =
  let src =
    eth_program
      ~ingress:
        {|  apply {
    verify_checksum(hdr.eth.isValid(), {hdr.eth.dst}, hdr.eth.etype, HashAlgorithm.csum16);
    if (sm.checksum_error == 1) { sm.egress_spec = 5; } else { sm.egress_spec = 6; }
  }|}
      ~deparser:"pkt.emit(hdr.eth);"
  in
  let run = generate src in
  let ports = List.map fst (outputs run) in
  Alcotest.(check bool) "tests are generated" true (ports <> []);
  Alcotest.(check (list int)) "the block never sees the flag" [] (List.filter (( <> ) 6) ports);
  replay_passes "extern write behind the frame" src run

(* ------------------------------------------------------------------ *)
(* Slice folding, end to end.  The oracle and the simulator share
   [Passes.fold], so a folding fault passes every differential run;
   here each test's expected header is computed with [Bits] from its
   input packet. *)

let test_folded_slices () =
  let src =
    eth_program
      ~ingress:
        {|  apply {
    hdr.eth.src[15:8][3:0] = hdr.eth.dst[23:8][11:8];
    hdr.eth.etype[7:0] = (hdr.eth.dst[15:0] ^ hdr.eth.src[31:16])[11:4];
    hdr.eth.etype[15:8] = (hdr.eth.dst[47:40] ^ hdr.eth.src[47:40])[7:0];
    hdr.eth.dst[3:0] = hdr.eth.src[47:16][31:8][7:4];
    sm.egress_spec = 1;
  }|}
      ~deparser:"pkt.emit(hdr.eth);"
  in
  (* [v] with its bits [hi:lo] replaced by [x] *)
  let splice v ~hi ~lo x =
    let w = Bits.width v in
    let top = if hi = w - 1 then x else Bits.concat (Bits.slice v ~hi:(w - 1) ~lo:(hi + 1)) x in
    if lo = 0 then top else Bits.concat top (Bits.slice v ~hi:(lo - 1) ~lo:0)
  in
  let header data =
    let w = Bits.width data in
    Bits.slice data ~hi:(w - 1) ~lo:(w - 112)
  in
  let expected input =
    let h = header input in
    let dst = Bits.slice h ~hi:111 ~lo:64 and src = Bits.slice h ~hi:63 ~lo:16 in
    let xor hi1 lo1 hi2 lo2 =
      Bits.logxor (Bits.slice dst ~hi:hi1 ~lo:lo1) (Bits.slice src ~hi:hi2 ~lo:lo2)
    in
    Bits.concat
      (splice dst ~hi:3 ~lo:0 (Bits.slice src ~hi:31 ~lo:28))
      (Bits.concat
         (splice src ~hi:11 ~lo:8 (Bits.slice dst ~hi:19 ~lo:16))
         (Bits.concat (xor 47 40 47 40) (Bits.slice (xor 15 0 31 16) ~hi:11 ~lo:4)))
  in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      let run = generate ~opts:{ Runtime.default_options with seed } src in
      List.iter
        (fun t ->
          List.iter
            (fun ((input : Testspec.packet), outputs) ->
              match outputs with
              | [ (o : Testspec.packet) ] when Bits.width input.data >= 112 ->
                  Alcotest.(check string)
                    (Printf.sprintf "seed %d: header of input %s" seed (Bits.to_hex input.data))
                    (Bits.to_hex (expected input.data))
                    (Bits.to_hex (header o.data));
                  incr checked
              | _ -> ())
            (Testspec.injects t))
        run.Oracle.result.Explore.tests;
      replay_passes "folded slices" src run)
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) (Printf.sprintf "%d parsed packets checked" !checked) true (!checked >= 4)

let () =
  Alcotest.run "oracle"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "fig1a" `Quick test_fig1a;
          Alcotest.test_case "fig1b" `Quick test_fig1b;
        ] );
      ("ebpf", [ Alcotest.test_case "filter" `Quick test_ebpf ]);
      ("tna", [ Alcotest.test_case "two-pipe" `Quick test_tna ]);
      ( "reentrancy",
        [
          Alcotest.test_case "interleaved prepares" `Quick test_interleaved_prepare;
          Alcotest.test_case "concurrent domains" `Quick test_concurrent_domains;
          Alcotest.test_case "batch jobs=1 = jobs=4" `Quick test_batch_determinism;
        ] );
      ( "calling convention",
        [
          Alcotest.test_case "no private copies of inout/out" `Quick test_no_private_copies;
          Alcotest.test_case "in parameter stays private" `Quick test_in_param_stays_private;
          Alcotest.test_case "inout write then exit" `Quick test_inout_write_then_exit;
          Alcotest.test_case "parser error reaches ingress" `Quick
            test_parser_error_reaches_ingress;
          Alcotest.test_case "extern write behind the frame" `Quick
            test_extern_write_behind_frame;
        ] );
      ("passes", [ Alcotest.test_case "folded slices" `Quick test_folded_slices ]);
      ( "front-end errors",
        [
          Alcotest.test_case "parse errors are positioned" `Quick
            test_parse_errors_positioned;
          Alcotest.test_case "uninstantiable program rejected" `Quick
            test_uninstantiable_rejected;
        ] );
    ]
