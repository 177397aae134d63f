(* Direct unit tests of the concrete software models: hand-crafted
   packets and control-plane entries with exact expected outputs —
   confidence in the simulator that does not depend on the oracle. *)

module Bits = Bitv.Bits
module Testspec = Testgen.Testspec

let eth ~dst ~src ~etype =
  Bits.concat
    (Bits.of_int ~width:48 dst)
    (Bits.concat (Bits.of_int ~width:48 src) (Bits.of_int ~width:16 etype))

let exact name v w = (name, Testspec.MExact (Bits.of_int ~width:w v))

let entry table keys action args =
  {
    Testspec.e_table = table;
    e_keys = keys;
    e_action = action;
    e_args = args;
    e_priority = None;
  }

(* ------------------------------------------------------------------ *)
(* fig1a on the BMv2 model *)

let fig1a_sim () = Sim.Harness.prepare ~arch:"v1model" Progzoo.Corpus.fig1a

let test_fig1a_miss_default () =
  let sim = fig1a_sim () in
  (* no entries: the program overwrites etype with 0xBEEF, noop leaves
     the default port 0 *)
  let input = eth ~dst:0x1111 ~src:0x2222 ~etype:0xAAAA in
  match Sim.Harness.run_packet sim ~entries:[] ~port:5 input with
  | Some [ (port, data) ] ->
      Alcotest.(check int) "default port 0" 0 port;
      Alcotest.(check int) "etype rewritten" 0xBEEF
        (Bits.to_int (Bits.slice data ~hi:15 ~lo:0))
  | _ -> Alcotest.fail "expected one output packet"

let test_fig1a_hit_forwards () =
  let sim = fig1a_sim () in
  let entries =
    [ entry "forward_table" [ exact "etype" 0xBEEF 16 ] "set_out"
        [ ("port", Bits.of_int ~width:9 7) ] ]
  in
  match Sim.Harness.run_packet sim ~entries ~port:5 (eth ~dst:1 ~src:2 ~etype:0) with
  | Some [ (port, _) ] -> Alcotest.(check int) "hit port" 7 port
  | _ -> Alcotest.fail "expected one output packet"

let test_fig1a_entry_for_other_key_misses () =
  let sim = fig1a_sim () in
  (* the program always forces etype to 0xBEEF before the lookup, so an
     entry for any other key can never hit *)
  let entries =
    [ entry "forward_table" [ exact "etype" 0x1234 16 ] "set_out"
        [ ("port", Bits.of_int ~width:9 7) ] ]
  in
  match Sim.Harness.run_packet sim ~entries ~port:5 (eth ~dst:1 ~src:2 ~etype:0x1234) with
  | Some [ (port, _) ] -> Alcotest.(check int) "miss keeps default port" 0 port
  | _ -> Alcotest.fail "expected one output packet"

let test_fig1a_drop_port () =
  let sim = fig1a_sim () in
  let entries =
    [ entry "forward_table" [ exact "etype" 0xBEEF 16 ] "set_out"
        [ ("port", Bits.of_int ~width:9 511) ] ]
  in
  (* port 511 is BMv2's drop port (Tbl. 6) *)
  Alcotest.(check bool) "dropped" true
    (Sim.Harness.run_packet sim ~entries ~port:5 (eth ~dst:1 ~src:2 ~etype:0) = None)

let test_short_packet_not_dropped_bmv2 () =
  let sim = fig1a_sim () in
  (* a parser error does not drop on BMv2: headers invalid, not emitted *)
  match Sim.Harness.run_packet sim ~entries:[] ~port:5 (Bits.of_int ~width:8 0xAB) with
  | Some [ (port, data) ] ->
      Alcotest.(check int) "still forwarded" 0 port;
      (* the invalid header is not emitted; the unparsed byte passes
         through as payload *)
      Alcotest.(check int) "only the unparsed payload" 8 (Bits.width data);
      Alcotest.(check int) "payload unchanged" 0xAB (Bits.to_int data)
  | _ -> Alcotest.fail "expected one output packet"

(* ------------------------------------------------------------------ *)
(* ternary ACL priorities on the model *)

let test_acl_priority_order () =
  let sim = Sim.Harness.prepare ~arch:"v1model" Progzoo.Corpus.ternary_acl in
  (* 0x0806 matches both the @priority(1) deny and the allow mask entry;
     the priority entry must win: drop *)
  Alcotest.(check bool) "0x0806 denied" true
    (Sim.Harness.run_packet sim ~entries:[] ~port:1 (eth ~dst:0 ~src:0 ~etype:0x0806) = None);
  (* 0x0800 matches the exact allow *)
  (match Sim.Harness.run_packet sim ~entries:[] ~port:1 (eth ~dst:0 ~src:0 ~etype:0x0800) with
  | Some [ (port, _) ] -> Alcotest.(check int) "0x0800 allowed" 1 port
  | _ -> Alcotest.fail "expected forward");
  (* 0x0801 matches only the low-priority mask entry (0x0800 &&& 0x0F00) *)
  Alcotest.(check bool) "0x0801 denied by mask entry" true
    (Sim.Harness.run_packet sim ~entries:[] ~port:1 (eth ~dst:0 ~src:0 ~etype:0x0801) = None);
  (* 0x0900 matches nothing: default allow *)
  match Sim.Harness.run_packet sim ~entries:[] ~port:1 (eth ~dst:0 ~src:0 ~etype:0x0900) with
  | Some [ (port, _) ] -> Alcotest.(check int) "0x0900 falls to default allow" 1 port
  | _ -> Alcotest.fail "expected forward"

(* ------------------------------------------------------------------ *)
(* Tofino model quirks *)

let test_tofino_min_frame () =
  let sim = Sim.Harness.prepare ~arch:"tna" Progzoo.Corpus.tna_basic in
  (* any frame below 64 bytes is dropped before processing *)
  Alcotest.(check bool) "63B dropped" true
    (Sim.Harness.run_packet sim ~entries:[] ~port:1 (Bits.zero (63 * 8)) = None)

let test_tofino_forward_and_rewrite () =
  let sim = Sim.Harness.prepare ~arch:"tna" Progzoo.Corpus.tna_basic in
  let input = Bits.concat (eth ~dst:0xABCD ~src:0 ~etype:0) (Bits.zero (50 * 8)) in
  let entries =
    [ entry "l2" [ exact "dst" 0xABCD 48 ] "fwd" [ ("port", Bits.of_int ~width:9 9) ] ]
  in
  match Sim.Harness.run_packet sim ~entries ~port:3 input with
  | Some [ (port, data) ] ->
      Alcotest.(check int) "forwarded to entry port" 9 port;
      (* the egress control rewrote the source MAC *)
      let w = Bits.width data in
      Alcotest.(check string) "egress rewrite" "C0FFEE000001"
        (Bits.to_hex (Bits.slice data ~hi:(w - 49) ~lo:(w - 96)))
  | _ -> Alcotest.fail "expected one output packet"

let test_tofino_default_drop () =
  let sim = Sim.Harness.prepare ~arch:"tna" Progzoo.Corpus.tna_basic in
  let input = Bits.concat (eth ~dst:0xABCD ~src:0 ~etype:0) (Bits.zero (50 * 8)) in
  (* no l2 entry: default action sets drop_ctl *)
  Alcotest.(check bool) "dropped" true
    (Sim.Harness.run_packet sim ~entries:[] ~port:3 input = None)

(* ------------------------------------------------------------------ *)
(* eBPF model *)

let ipv4ish ~proto =
  (* version..frag(64) ttl(8) proto(8) csum(16) saddr(32) daddr(32) *)
  Bits.concat
    (Bits.of_int ~width:64 0)
    (Bits.concat
       (Bits.of_int ~width:8 64)
       (Bits.concat (Bits.of_int ~width:8 proto) (Bits.zero 80)))

let test_ebpf_filter () =
  let sim = Sim.Harness.prepare ~arch:"ebpf_model" Progzoo.Corpus.ebpf_filter in
  let tcp = Bits.concat (eth ~dst:0 ~src:0 ~etype:0x0800) (ipv4ish ~proto:6) in
  let udp = Bits.concat (eth ~dst:0 ~src:0 ~etype:0x0800) (ipv4ish ~proto:17) in
  (match Sim.Harness.run_packet sim ~entries:[] ~port:0 tcp with
  | Some [ (_, data) ] ->
      Alcotest.(check bool) "TCP passes unchanged" true (Bits.equal data tcp)
  | _ -> Alcotest.fail "expected pass");
  Alcotest.(check bool) "UDP filtered" true
    (Sim.Harness.run_packet sim ~entries:[] ~port:0 udp = None);
  (* failing extract drops in the kernel (Tbl. 6) *)
  Alcotest.(check bool) "short packet dropped" true
    (Sim.Harness.run_packet sim ~entries:[] ~port:0 (Bits.zero 8) = None)

(* packet 2 of a sequence runs on packet 1's interpreter state, but
   must not deparse packet 1's headers again *)
let test_ebpf_sequence_emit_reset () =
  let src =
    {|
header h_t { bit<16> f; }
struct headers_t { h_t h; }
parser prs(packet_in pkt, out headers_t hdr) {
  state start { pkt.extract(hdr.h); transition accept; }
}
control pipe(inout headers_t hdr, out bool pass) {
  apply { pass = true; }
}
ebpfFilter(prs(), pipe()) main;
|}
  in
  let sim = Sim.Harness.prepare ~arch:"ebpf_model" src in
  let inject v =
    let p = Testspec.packet ~port:(Bits.zero 9) (Bits.of_int ~width:16 v) in
    Testspec.SInject { input = p; outputs = [ p ] }
  in
  let t =
    Testspec.make_seq
      ~steps:[ inject 0x1234; inject 0xABCD ]
      ~entries:[] ~registers:[] ~covered:[] ~comment:"two packets"
  in
  match Sim.Harness.run_test sim t with
  | Sim.Harness.Pass -> ()
  | Sim.Harness.Wrong_output m | Sim.Harness.Crash m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* registers persist within a packet, reset across packets *)

let test_register_semantics () =
  let sim = Sim.Harness.prepare ~arch:"v1model" Progzoo.Corpus.register_program in
  let input = eth ~dst:0 ~src:0 ~etype:0 in
  (* first (and only) packet: register cell 3 starts at 0 -> port 7 *)
  match Sim.Harness.run_packet sim ~entries:[] ~port:1 input with
  | Some [ (port, _) ] -> Alcotest.(check int) "fresh register" 7 port
  | _ -> Alcotest.fail "expected forward"

(* ------------------------------------------------------------------ *)
(* multi-packet sequences: one persistent interpreter state *)

let seq_suite () =
  (* an oracle-generated 2-packet suite for the register state machine *)
  let opts =
    { Testgen.Runtime.default_options with Testgen.Runtime.seq_packets = 2 }
  in
  let target = Option.get (Targets.Registry.find "v1model") in
  let run = Testgen.Oracle.generate ~opts target Progzoo.Corpus.register_program in
  run.Testgen.Oracle.result.Testgen.Explore.tests

let test_sequence_suite_passes () =
  let tests = seq_suite () in
  Alcotest.(check bool) "suite has a sequence" true
    (List.exists Testspec.is_sequence tests);
  let sim = Sim.Harness.prepare ~arch:"v1model" Progzoo.Corpus.register_program in
  let summary, results = Sim.Harness.run_suite sim tests in
  List.iter
    (fun ((_ : Testspec.t), v) ->
      match v with
      | Sim.Harness.Pass -> ()
      | Sim.Harness.Wrong_output m | Sim.Harness.Crash m -> Alcotest.fail m)
    results;
  Alcotest.(check int) "all pass" summary.Sim.Harness.total summary.Sim.Harness.passed

let test_sequence_determinism () =
  (* two fresh harnesses replay the same sequence suite to identical
     verdicts: no state leaks between tests of a suite *)
  let tests = seq_suite () in
  let verdicts () =
    let sim = Sim.Harness.prepare ~arch:"v1model" Progzoo.Corpus.register_program in
    let _, results = Sim.Harness.run_suite sim tests in
    List.map
      (fun (_, v) ->
        match v with
        | Sim.Harness.Pass -> "pass"
        | Sim.Harness.Wrong_output m -> "wrong:" ^ m
        | Sim.Harness.Crash m -> "crash:" ^ m)
      results
  in
  Alcotest.(check (list string)) "identical verdicts" (verdicts ()) (verdicts ())

let test_sequence_fault_killed () =
  (* the SEQ-1 fault resets registers between the packets of a
     sequence; the 2-packet suite must observe it (packet 2 expects
     port 8, the reset model forwards to 7 again) while a single-packet
     suite cannot *)
  let tests = seq_suite () in
  let faulted =
    Sim.Harness.prepare ~fault:Sim.Mutation.Register_reset_between_packets
      ~arch:"v1model" Progzoo.Corpus.register_program
  in
  let summary, _ = Sim.Harness.run_suite faulted tests in
  Alcotest.(check bool) "sequence suite kills SEQ-1" true
    (summary.Sim.Harness.wrong > 0);
  let singles =
    let target = Option.get (Targets.Registry.find "v1model") in
    let run = Testgen.Oracle.generate target Progzoo.Corpus.register_program in
    run.Testgen.Oracle.result.Testgen.Explore.tests
  in
  let s1, _ = Sim.Harness.run_suite faulted singles in
  Alcotest.(check int) "single-packet suite is blind to SEQ-1" 0
    (s1.Sim.Harness.wrong + s1.Sim.Harness.crashed)

let () =
  Alcotest.run "sim"
    [
      ( "bmv2",
        [
          Alcotest.test_case "miss default" `Quick test_fig1a_miss_default;
          Alcotest.test_case "hit forwards" `Quick test_fig1a_hit_forwards;
          Alcotest.test_case "stale entry misses" `Quick test_fig1a_entry_for_other_key_misses;
          Alcotest.test_case "drop port 511" `Quick test_fig1a_drop_port;
          Alcotest.test_case "parser error continues" `Quick test_short_packet_not_dropped_bmv2;
          Alcotest.test_case "acl priorities" `Quick test_acl_priority_order;
          Alcotest.test_case "registers" `Quick test_register_semantics;
        ] );
      ( "tofino",
        [
          Alcotest.test_case "64B minimum" `Quick test_tofino_min_frame;
          Alcotest.test_case "forward + rewrite" `Quick test_tofino_forward_and_rewrite;
          Alcotest.test_case "default drop" `Quick test_tofino_default_drop;
        ] );
      ( "ebpf",
        [
          Alcotest.test_case "filter" `Quick test_ebpf_filter;
          Alcotest.test_case "sequence re-emits only its own headers" `Quick
            test_ebpf_sequence_emit_reset;
        ] );
      ( "sequences",
        [
          Alcotest.test_case "oracle suite passes" `Quick test_sequence_suite_passes;
          Alcotest.test_case "deterministic replay" `Quick test_sequence_determinism;
          Alcotest.test_case "SEQ-1 fault killed" `Quick test_sequence_fault_killed;
        ] );
    ]
