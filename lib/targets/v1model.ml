(* The v1model architecture extension (BMv2's simple_switch), §6.1.1.

   Pipeline template (Fig. 3): Parser -> VerifyChecksum -> Ingress ->
   traffic manager -> Egress -> ComputeChecksum -> Deparser, with
   recirculation, resubmission, and cloning looping packets back
   through the pipeline (Fig. 5).

   BMv2 quirks implemented from Tbl. 6:
   - uninitialized variables read as 0,
   - the default output port is 0; egress_spec 511 means drop,
   - parser errors do not drop the packet: the offending header stays
     invalid and execution continues with the ingress control,
   - clone behaves differently in ingress and egress,
   - the "priority" annotation reorders constant table entries. *)

module Bits = Bitv.Bits
module Expr = Smt.Expr
open P4
open Testgen
open Testgen.Runtime

let name = "v1model"
let port_width = 9
let drop_port = 511
let min_packet_bytes = None

(* resubmissions plus recirculations allowed per path *)
let max_recirc = 2

let prelude =
  {|
struct standard_metadata_t {
  bit<9>  ingress_port;
  bit<9>  egress_spec;
  bit<9>  egress_port;
  bit<32> instance_type;
  bit<32> packet_length;
  bit<32> enq_timestamp;
  bit<19> enq_qdepth;
  bit<32> deq_timedelta;
  bit<19> deq_qdepth;
  bit<48> ingress_global_timestamp;
  bit<48> egress_global_timestamp;
  bit<16> mcast_grp;
  bit<16> egress_rid;
  bit<1>  checksum_error;
  error   parser_error;
  bit<3>  priority;
}

enum HashAlgorithm {
  crc32,
  crc32_custom,
  crc16,
  crc16_custom,
  random,
  identity,
  csum16,
  xor16
}

enum CounterType {
  packets,
  bytes,
  packets_and_bytes
}

enum MeterType {
  packets,
  bytes
}

enum CloneType {
  I2E,
  E2E
}
|}

(* pipeline-state paths *)
let hdr_p = "$pipe.hdr"
let meta_p = "$pipe.meta"
let sm_p = "$pipe.sm"
let clone_p = "$pipe.$clone"
let recirc_p = "$pipe.$recirc"
let resubmit_p = "$pipe.$resubmit"
let truncate_p = "$pipe.$truncate"

type blocks = {
  bl_parser : Ast.parser_decl;
  bl_verify : Ast.control_decl;
  bl_ingress : Ast.control_decl;
  bl_egress : Ast.control_decl;
  bl_compute : Ast.control_decl;
  bl_deparser : Ast.control_decl;
}

let blocks ctx : blocks =
  match Target_intf.find_instantiation ctx.prog with
  | Some ("V1Switch", args, _) -> (
      match List.map Target_intf.constructor_name args with
      | [ p; vc; ig; eg; cc; dp ] ->
          let parser n =
            match Hashtbl.find_opt ctx.parsers n with
            | Some d -> d
            | None -> fail "v1model: unknown parser %s" n
          in
          let control n =
            match Hashtbl.find_opt ctx.controls n with
            | Some d -> d
            | None -> fail "v1model: unknown control %s" n
          in
          {
            bl_parser = parser p;
            bl_verify = control vc;
            bl_ingress = control ig;
            bl_egress = control eg;
            bl_compute = control cc;
            bl_deparser = control dp;
          }
      | _ -> fail "v1model: V1Switch expects 6 package arguments")
  | Some (t, _, _) -> fail "v1model: expected a V1Switch instantiation, found %s" t
  | None -> fail "v1model: no package instantiation"

let sm_leaf st field = read_leaf st (sm_p ^ "." ^ field)
let set_sm field v st = write_leaf (sm_p ^ "." ^ field) v st

(* An extern's write to standard metadata that bypasses the frame.  In
   a block that takes standard metadata as an argument, copy-in/copy-out
   hides such a write from the block and overwrites it at the block's
   exit, so under binding by reference it is dropped there. *)
let set_sm_from_extern (fr : frame) field v st =
  if List.exists (fun (_, (path, _)) -> path = sm_p) fr.fr_params then st
  else set_sm field v st

(* the storage of the enclosing parser's standard-metadata parameter,
   if any *)
let parser_sm_path st (fr : frame) =
  match fr.fr_parser with
  | Some pd ->
      List.find_map
        (fun (p : Ast.param) ->
          match p.par_typ with
          | Ast.TName "standard_metadata_t" -> Option.map fst (resolve_var st fr p.par_name)
          | _ -> None)
        pd.p_params
  | None -> None

(* ------------------------------------------------------------------ *)
(* Parser reject semantics: record the error, leave the header invalid,
   and continue with the ingress control (Tbl. 6). *)

let on_reject : reject_hook =
 fun ctx fr err st ->
  let code = Expr.of_int ctx.ectx ~width:Typing.error_width (Typing.error_code ctx.tctx err) in
  let st =
    match parser_sm_path st fr with
    | Some smp when Env.mem (smp ^ ".parser_error") st.env ->
        write_leaf (smp ^ ".parser_error") code st
    | _ -> st
  in
  [ { br_cond = None; br_state = pop_to_reject err st; br_label = "reject:" ^ err } ]

(* ------------------------------------------------------------------ *)
(* Externs *)

let algo_name (e : Ast.expr) =
  match e with
  | Ast.EMember (Ast.EVar "HashAlgorithm", a) -> a
  | Ast.EVar a -> a
  | _ -> "crc32"

(* extern instances resolve through {!Runtime.find_register_path} and
   friends: fresh per-invocation scopes first, then the declaring
   block's stable key, so state persists across recirculation and
   sequence packet boundaries *)

let extern : extern_hook =
 fun ctx fname args fr st ->
  let eval ?hint e =
    let st', v = Eval.eval ?hint ctx fr st e in
    ignore st';
    v
  in
  let eval_st ?hint st e = Eval.eval ?hint ctx fr st e in
  match (fname, args) with
  | "mark_to_drop", [ smarg ] ->
      let lv = Eval.lvalue_of ctx fr st smarg in
      RUnit (write_leaf (lv.lv_path ^ ".egress_spec") (Expr.of_int ctx.ectx ~width:9 drop_port) st)
  | "mark_to_drop", [] ->
      RUnit (set_sm_from_extern fr "egress_spec" (Expr.of_int ctx.ectx ~width:9 drop_port) st)
  | ("verify_checksum" | "verify_checksum_with_payload"), [ cond; data; given; algo ] ->
      let st, vcond = eval_st st cond in
      let st, vdata = eval_st st data in
      let st, vgiven = eval_st st given in
      let w = Expr.width vgiven in
      let impl = Checksums.by_algorithm ~width:w (algo_name algo) in
      let st, r =
        concolic_call ctx ~name:("verify_" ^ algo_name algo)
          ~impl:(fun vals -> impl (List.hd vals))
          ~width:w [ vdata ] st
      in
      let err = Expr.band vcond (Expr.neq r vgiven) in
      let st =
        if Env.mem (sm_p ^ ".checksum_error") st.env then
          set_sm_from_extern fr "checksum_error" err st
        else st
      in
      RVal (st, err)
  | ("update_checksum" | "update_checksum_with_payload"), [ cond; data; dst; algo ] ->
      let st, vcond = eval_st st cond in
      let st, vdata = eval_st st data in
      let dlv = Eval.lvalue_of ctx fr st dst in
      let w = Typing.width_of ctx.tctx dlv.lv_typ in
      let impl = Checksums.by_algorithm ~width:w (algo_name algo) in
      let st, r =
        concolic_call ctx ~name:("update_" ^ algo_name algo)
          ~impl:(fun vals -> impl (List.hd vals))
          ~width:w [ vdata ] st
      in
      let st, old = eval_st st dst in
      RUnit (Eval.write_lvalue ctx fr st dst (Expr.ite vcond r old))
  | "hash", [ dst; algo; base; data; maxv ] ->
      let st, vdata = eval_st st data in
      let dlv = Eval.lvalue_of ctx fr st dst in
      let w = Typing.width_of ctx.tctx dlv.lv_typ in
      let impl = Checksums.by_algorithm ~width:w (algo_name algo) in
      let st, r =
        concolic_call ctx ~name:("hash_" ^ algo_name algo)
          ~impl:(fun vals -> impl (List.hd vals))
          ~width:w [ vdata ] st
      in
      let st, vbase = eval_st ~hint:w st base in
      let st, vmax = eval_st ~hint:w st maxv in
      let vbase = Expr.zext vbase w and vmax = Expr.zext vmax w in
      (* result = base + (hash mod max); max = 0 means full range *)
      let modded =
        Expr.ite (Expr.eq vmax (Expr.zero ctx.ectx w)) r (Expr.add vbase (Expr.urem r vmax))
      in
      RUnit (Eval.write_lvalue ctx fr st dst modded)
  | "random", [ dst; _lo; _hi ] ->
      (* pseudo-random generator: nondeterministic output (§2.3) *)
      let dlv = Eval.lvalue_of ctx fr st dst in
      let w = Typing.width_of ctx.tctx dlv.lv_typ in
      RUnit (Eval.write_lvalue ctx fr st dst (Expr.fresh_taint ctx.ectx w))
  | ("clone" | "clone3" | "clone_preserving_field_list"), (_ :: session :: _) ->
      let v = eval ~hint:32 session in
      RUnit (write_leaf clone_p (Expr.zext v 32) st)
  | ("recirculate" | "recirculate_preserving_field_list"), _ ->
      RUnit (write_leaf recirc_p (Expr.tru ctx.ectx) st)
  | ("resubmit" | "resubmit_preserving_field_list"), _ ->
      RUnit (write_leaf resubmit_p (Expr.tru ctx.ectx) st)
  | "truncate", [ len ] ->
      let v = eval ~hint:32 len in
      RUnit (write_leaf truncate_p (Expr.zext v 32) st)
  | ("assert" | "assume"), [ cond ] ->
      (* constrain the path; tests that violate assertions would
         terminate BMv2 abnormally (Tbl. 6) *)
      let st, v = eval_st st cond in
      RBranch [ { br_cond = Some v; br_state = st; br_label = fname } ]
  | ("log_msg" | "digest"), _ -> RUnit st
  | _, _ -> (
      (* extern-object method calls: obj.method *)
      match String.index_opt fname '.' with
      | Some i -> (
          let obj = String.sub fname 0 i in
          let meth = String.sub fname (i + 1) (String.length fname - i - 1) in
          match (meth, args) with
          | "read", [ dst; idx ] -> (
              match find_register_path st fr obj with
              | Some key -> (
                  let st, vidx = eval_st ~hint:32 st idx in
                  let dlv = Eval.lvalue_of ctx fr st dst in
                  let w = Typing.width_of ctx.tctx dlv.lv_typ in
                  match Expr.is_const vidx with
                  | Some b -> (
                      match read_register st key (Bits.to_int b) with
                      | Some v -> RUnit (Eval.write_lvalue ctx fr st dst (Expr.zext v w))
                      | None -> RUnit (Eval.write_lvalue ctx fr st dst (Expr.zero ctx.ectx w)))
                  | None ->
                      (* symbolic index: prototype with taint (§5.3) *)
                      RUnit (Eval.write_lvalue ctx fr st dst (Expr.fresh_taint ctx.ectx w)))
              | None -> fail "v1model: unknown register %s" obj)
          | "write", [ idx; v ] -> (
              match find_register_path st fr obj with
              | Some key -> (
                  let st, vidx = eval_st ~hint:32 st idx in
                  let st, vv = eval_st st v in
                  match Expr.is_const vidx with
                  | Some b -> RUnit (write_register st key (Bits.to_int b) vv)
                  | None -> RUnit (taint_register st key))
              | None -> fail "v1model: unknown register %s" obj)
          | "count", args -> (
              (* bump the counter cell (taint the array under a
                 symbolic index); counter values never reach the
                 packet, so outputs are unaffected *)
              match find_counter_path st fr obj with
              | Some key -> (
                  match args with
                  | idx :: _ ->
                      let st, vidx = eval_st ~hint:32 st idx in
                      RUnit
                        (bump_counter st key
                           (Option.map Bits.to_int (Expr.is_const vidx)))
                  | [] -> RUnit (bump_counter st key (Some 0)))
              | None -> RUnit st)
          | "execute_meter", [ idx; dst ] ->
              (* an unconfigured meter always returns GREEN (0); the
                 RED verdict needs meter configuration the test
                 frameworks lack (§7, up4.p4 coverage).  The cell still
                 records a tainted color (§5.3). *)
              let st, vidx = eval_st ~hint:32 st idx in
              let st =
                match find_meter_path st fr obj with
                | Some key ->
                    execute_meter_state st key
                      (Option.map Bits.to_int (Expr.is_const vidx))
                | None -> st
              in
              let dlv = Eval.lvalue_of ctx fr st dst in
              let w = Typing.width_of ctx.tctx dlv.lv_typ in
              RUnit (Eval.write_lvalue ctx fr st dst (Expr.zero ctx.ectx w))
          | _ -> fail "v1model: unsupported extern %s" fname)
      | None -> fail "v1model: unsupported extern %s" fname)

(* ------------------------------------------------------------------ *)
(* Pipeline template *)

let reset_intrinsic ~instance_type st =
  let ectx = state_ectx st in
  let st = set_sm "egress_spec" (Expr.zero ectx 9) st in
  let st = set_sm "egress_port" (Expr.zero ectx 9) st in
  let st = set_sm "instance_type" (Expr.of_int ectx ~width:32 instance_type) st in
  let st = write_leaf clone_p (Expr.zero ectx 32) st in
  let st = write_leaf recirc_p (Expr.fls ectx) st in
  let st = write_leaf resubmit_p (Expr.fls ectx) st in
  write_leaf truncate_p (Expr.zero ectx 32) st

let rec pipeline_ops ctx (b : blocks) : work list =
  ignore ctx;
  [
    WOp
      ( "v1:parser",
        fun ctx st ->
          continue_
            (Step.enter_parser ctx b.bl_parser
               [ Step.Packet; Step.Data hdr_p; Step.Data meta_p; Step.Data sm_p ]
               st) );
    WOp
      ( "v1:verify",
        fun ctx st ->
          continue_ (Step.enter_control ctx b.bl_verify [ Step.Data hdr_p; Step.Data meta_p ] st)
      );
    WOp
      ( "v1:ingress",
        fun ctx st ->
          continue_
            (Step.enter_control ctx b.bl_ingress
               [ Step.Data hdr_p; Step.Data meta_p; Step.Data sm_p ]
               st) );
    WOp ("v1:traffic_manager", fun ctx st -> traffic_manager ctx b st);
  ]

and egress_ops (b : blocks) : work list =
  [
    WOp
      ( "v1:egress",
        fun ctx st ->
          continue_
            (Step.enter_control ctx b.bl_egress
               [ Step.Data hdr_p; Step.Data meta_p; Step.Data sm_p ]
               st) );
    WOp
      ( "v1:compute",
        fun ctx st ->
          continue_ (Step.enter_control ctx b.bl_compute [ Step.Data hdr_p; Step.Data meta_p ] st)
      );
    WOp
      ( "v1:deparser",
        fun ctx st ->
          continue_ (Step.enter_control ctx b.bl_deparser [ Step.Packet; Step.Data hdr_p ] st) );
    WOp ("v1:final", fun ctx st -> finalize b ctx st);
  ]

(* Traffic manager (Fig. 5): resubmit, drop, or continue to egress. *)
and traffic_manager ctx (b : blocks) st : branch list =
  ignore ctx;
  let resub = read_leaf st resubmit_p in
  if Expr.is_true resub && st.recircs < max_recirc then begin
    (* resubmit: the original input packet re-enters the ingress parser *)
    let st = note "resubmit" st in
    let st = { st with live = input_expr st; recircs = st.recircs + 1 } in
    let st = reset_intrinsic ~instance_type:6 st in
    continue_ (push_work (pipeline_ops ctx b) st)
  end
  else if Expr.is_true resub then []
  else begin
    let es = sm_leaf st "egress_spec" in
    let drop_cond = Expr.eq es (Expr.of_int ctx.ectx ~width:9 drop_port) in
    let dropped = { (note "TM: drop" st) with dropped = true; work = [] } in
    let forward =
      let st = set_sm "egress_port" es (note "TM: forward" st) in
      push_work (egress_ops b) st
    in
    (* multicast: a non-zero mcast_grp replicates the packet to the
       group's ports, which are control-plane state; we synthesize a
       two-port group and emit both copies after a single egress pass
       (a simplification: real BMv2 runs egress per replica) *)
    let mg = sm_leaf st "mcast_grp" in
    let mcast_branch () =
      let gid = fresh_var ctx "$mcast_gid" 16 in
      let p1 = fresh_var ctx "$mcast_p1" 9 and p2 = fresh_var ctx "$mcast_p2" 9 in
      let entry =
        {
          se_table = "$mcast";
          se_keys = [ ("group", SkExact gid) ];
          se_action = "__mcast_group__";
          se_args = [ ("port1", p1); ("port2", p2) ];
          se_priority = None;
        }
      in
      let st = { (note "TM: multicast" st) with entries = entry :: st.entries } in
      let st = set_sm "egress_port" p1 st in
      let st = write_leaf "$pipe.$mcast_p2" p2 st in
      {
        br_cond = Some (Expr.band (Expr.neq mg (Expr.zero ctx.ectx 16)) (Expr.eq mg gid));
        br_state = push_work (egress_ops b) st;
        br_label = "tm:multicast";
      }
    in
    if Expr.is_false (Expr.neq mg (Expr.zero ctx.ectx 16)) then
      (* mcast_grp is never written: unicast only *)
      Step.fork_cond ctx
        no_frame
        drop_cond
        ~then_:("tm:drop", dropped)
        ~else_:("tm:forward", forward)
    else begin
      let unicast =
        List.map
          (fun br ->
            { br with
              br_cond =
                Some
                  (Expr.band
                     (Expr.eq mg (Expr.zero ctx.ectx 16))
                     (Option.value br.br_cond ~default:(Expr.tru ctx.ectx))) })
          (Step.fork_cond ctx
             no_frame
             drop_cond
             ~then_:("tm:drop", dropped)
             ~else_:("tm:forward", forward))
      in
      mcast_branch () :: unicast
    end
  end

(* After the deparser: truncation, recirculation, cloning, output. *)
and finalize (b : blocks) ctx st : branch list =
  let st = flush_emit st in
  (* mtu truncation *)
  let st =
    match Expr.is_const (read_leaf st truncate_p) with
    | Some l when not (Bits.is_zero l) ->
        let bytes = Bits.to_int l in
        let w = Expr.width st.live in
        if w > bytes * 8 then
          { st with live = Expr.slice st.live ~hi:(w - 1) ~lo:(w - (bytes * 8)) }
        else st
    | _ -> st
  in
  let recirc = read_leaf st recirc_p in
  if Expr.is_true recirc then begin
    if st.recircs >= max_recirc then []
    else begin
      (* the deparsed packet re-enters the ingress parser *)
      let st = note "recirculate" st in
      let st = { st with recircs = st.recircs + 1 } in
      let st = reset_intrinsic ~instance_type:4 st in
      continue_ (push_work (pipeline_ops ctx b) st)
    end
  end
  else begin
    let port = sm_leaf st "egress_port" in
    let es = sm_leaf st "egress_spec" in
    let drop_cond = Expr.eq es (Expr.of_int ctx.ectx ~width:9 drop_port) in
    let deliver st =
      let st = add_output ~note:"normal" ~port ~data:st.live st in
      let st =
        match Env.find_opt "$pipe.$mcast_p2" st.env with
        | Some p2 -> add_output ~note:"mcast-copy" ~port:p2 ~data:st.live st
        | None -> st
      in
      (* simplified I2E/E2E clone: a copy of the deparsed packet is
         mirrored to the session's port *)
      let clone = read_leaf st clone_p in
      match Expr.is_const clone with
      | Some b when Bits.is_zero b -> st
      | _ ->
          add_output ~note:"clone"
            ~port:(Expr.slice clone ~hi:8 ~lo:0)
            ~data:st.live st
    in
    if Expr.is_true drop_cond then continue_ { st with dropped = true }
    else if Expr.is_false drop_cond then continue_ (deliver st)
    else
      Step.fork_cond ctx
        no_frame
        drop_cond
        ~then_:("egress-drop", { st with dropped = true })
        ~else_:("deliver", deliver st)
  end

let init ctx st =
  ctx.uninit_is_zero <- true;
  let b = blocks ctx in
  (* pipeline state: types come from the user parser's parameters *)
  let htyp, mtyp =
    match b.bl_parser.p_params with
    | [ _; h; m; _ ] -> (h.par_typ, m.par_typ)
    | _ -> fail "v1model: parser must have 4 parameters"
  in
  let st = declare ctx ~init:(init_taint ctx) htyp hdr_p st in
  let st = declare ctx ~init:(init_zero ctx) mtyp meta_p st in
  let st = declare ctx ~init:(init_zero ctx) (Ast.TName "standard_metadata_t") sm_p st in
  let st = declare ctx ~init:(init_zero ctx) (Ast.TBit 32) clone_p st in
  let st = declare ctx ~init:(init_zero ctx) (Ast.TBit 1) recirc_p st in
  let st = declare ctx ~init:(init_zero ctx) (Ast.TBit 1) resubmit_p st in
  let st = declare ctx ~init:(init_zero ctx) (Ast.TBit 32) truncate_p st in
  (* per-packet scratch that [declare] does not cover: a multicast
     second port from an earlier packet of a sequence must not leak
     into this packet's delivery *)
  let st = { st with env = Env.remove "$pipe.$mcast_p2" st.env } in
  let st = set_sm "ingress_port" st.in_port st in
  (* the packet length is unknown until the path is complete: taint *)
  let st = set_sm "packet_length" (Expr.fresh_taint ctx.ectx 32) st in
  push_work (pipeline_ops ctx b) st

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
