(* The ebpf_model architecture extension (§6.1.3).

   The simplest of the shipped targets: a parser and a filter control,
   no deparser.  Quirks from Tbl. 6:
   - no emit-based deparser: the implicit deparser walks the header
     structure and re-emits every valid header, followed by the
     unparsed payload;
   - a failing extract or advance drops the packet;
   - the accept output of the filter decides the packet's fate. *)

module Expr = Smt.Expr
open P4
open Testgen
open Testgen.Runtime

let name = "ebpf_model"
let port_width = 4
let min_packet_bytes = None

let prelude = {|
struct ebpf_dummy_t { bit<1> unused; }
|}

let hdr_p = "$pipe.hdr"
let accept_p = "$pipe.accept"

type blocks = { bl_parse : Ast.parser_decl; bl_filter : Ast.control_decl }

let blocks ctx : blocks =
  match Target_intf.find_instantiation ctx.prog with
  | Some ("ebpfFilter", args, _) -> (
      match List.map Target_intf.constructor_name args with
      | [ p; f ] ->
          let parser =
            match Hashtbl.find_opt ctx.parsers p with
            | Some d -> d
            | None -> fail "ebpf: unknown parser %s" p
          in
          let filter =
            match Hashtbl.find_opt ctx.controls f with
            | Some d -> d
            | None -> fail "ebpf: unknown control %s" f
          in
          { bl_parse = parser; bl_filter = filter }
      | _ -> fail "ebpf: ebpfFilter expects 2 package arguments")
  | Some (t, _, _) -> fail "ebpf: expected an ebpfFilter instantiation, found %s" t
  | None -> fail "ebpf: no package instantiation"

(* a failing extract or advance drops the packet in the kernel *)
let on_reject : reject_hook =
 fun _ _ err st ->
  [
    {
      br_cond = None;
      br_state = { (note ("reject -> drop: " ^ err) st) with dropped = true; work = [] };
      br_label = "reject-drop:" ^ err;
    };
  ]

let extern : extern_hook =
 fun ctx fname args fr st ->
  match (fname, args) with
  | ("ebpf_ipv4_checksum" | "verify_ipv4_checksum"), [ data ] ->
      let st, vdata = Eval.eval ctx fr st data in
      let st, r =
        concolic_call ctx ~name:"ebpf_csum16"
          ~impl:(fun vals -> Checksums.csum16 (List.hd vals))
          ~width:16 [ vdata ] st
      in
      RVal (st, r)
  | _, _ -> (
      match String.index_opt fname '.' with
      | Some i -> (
          let meth = String.sub fname (i + 1) (String.length fname - i - 1) in
          match meth with
          (* CounterArray methods *)
          | "increment" | "add" -> RUnit st
          | _ -> fail "ebpf: unsupported extern %s" fname)
      | None -> fail "ebpf: unsupported extern %s" fname)

(* implicit deparser: emit every valid header of the header structure
   in declaration order (§6.1.3) *)
let implicit_deparse ctx (htyp : Ast.typ) st : branch list =
  let fr = { no_frame with fr_scopes = [ "$pipe" ] } in
  match Step.emit_one ctx fr hdr_p htyp st with
  | branches -> branches

let finalize ctx st : branch list =
  let st = flush_emit st in
  let accept = read_leaf st accept_p in
  let deliver = add_output ~note:"pass" ~port:(Expr.zero ctx.ectx port_width) ~data:st.live st in
  let dropped = { st with dropped = true } in
  if Expr.is_true accept then continue_ deliver
  else if Expr.is_false accept then continue_ dropped
  else
    Step.fork_cond ctx
      no_frame
      accept
      ~then_:("ebpf:pass", deliver)
      ~else_:("ebpf:drop", dropped)

let init ctx st =
  ctx.uninit_is_zero <- false;
  let b = blocks ctx in
  let htyp =
    match b.bl_parse.p_params with
    | [ _; h ] -> h.par_typ
    | _ -> fail "ebpf: parser must have 2 parameters"
  in
  let st = declare ctx ~init:(init_taint ctx) htyp hdr_p st in
  let st = declare ctx ~init:(init_zero ctx) Ast.TBool accept_p st in
  push_work
    [
      WOp
        ( "ebpf:parse",
          fun ctx st ->
            continue_ (Step.enter_parser ctx b.bl_parse [ Step.Packet; Step.Data hdr_p ] st) );
      WOp
        ( "ebpf:filter",
          fun ctx st ->
            continue_
              (Step.enter_control ctx b.bl_filter [ Step.Data hdr_p; Step.Data accept_p ] st) );
      WOp ("ebpf:deparse", fun ctx st -> implicit_deparse ctx htyp st);
      WOp ("ebpf:final", fun ctx st -> finalize ctx st);
    ]
    st

let target : (module Target_intf.S) =
  (module struct
    let name = name
    let prelude = prelude
    let port_width = port_width
    let min_packet_bytes = min_packet_bytes
    let init = init
    let extern = extern
    let on_reject = on_reject
  end)
