(* Shared implementation of the tna / t2na architecture extensions
   (§6.1.2).

   Pipeline template: IngressParser -> Ingress -> IngressDeparser ->
   traffic manager -> EgressParser -> Egress -> EgressDeparser.

   Tofino quirks implemented from Tbl. 6 / §6.1.2:
   - the device prepends intrinsic metadata to the wire packet; the
     parser extracts it (its content is tainted except the ingress
     port);
   - packets shorter than 64 bytes are dropped, so generated frames
     are padded with payload to the 64-byte minimum;
   - a too-short packet is dropped in the *ingress* parser but not in
     the egress parser;
   - if the egress port variable is never written the packet is
     dropped;
   - bypass_egress skips egress processing entirely;
   - without the auto_init_metadata annotation, uninitialized
     variables are undefined (tainted);
   - t2na doubles the extern count and adds the ghost thread (we
     accept and ignore a ghost block). *)

module Bits = Bitv.Bits
module Expr = Smt.Expr
open P4
open Testgen
open Testgen.Runtime

type family = Tna | T2na

let family_name = function Tna -> "tna" | T2na -> "t2na"

let port_width = 9
let invalid_port = 0x1FF

let prelude_common =
  {|
struct ingress_intrinsic_metadata_t {
  bit<1>  resubmit_flag;
  bit<1>  _pad1;
  bit<2>  packet_version;
  bit<3>  _pad2;
  bit<9>  ingress_port;
  bit<48> ingress_mac_tstamp;
}

struct ingress_intrinsic_metadata_from_parser_t {
  bit<48> global_tstamp;
  bit<32> global_ver;
  bit<16> parser_err;
}

struct ingress_intrinsic_metadata_for_deparser_t {
  bit<3> drop_ctl;
  bit<3> digest_type;
  bit<3> resubmit_type;
  bit<3> mirror_type;
}

struct ingress_intrinsic_metadata_for_tm_t {
  bit<9>  ucast_egress_port;
  bit<1>  bypass_egress;
  bit<1>  deflect_on_drop;
  bit<3>  ingress_cos;
  bit<5>  qid;
  bit<3>  icos_for_copy_to_cpu;
  bit<1>  copy_to_cpu;
  bit<2>  packet_color;
  bit<3>  disable_ucast_cutthru;
  bit<16> mcast_grp_a;
  bit<16> mcast_grp_b;
  bit<13> level1_mcast_hash;
  bit<13> level2_mcast_hash;
  bit<16> level1_exclusion_id;
  bit<9>  level2_exclusion_id;
  bit<16> rid;
}

struct egress_intrinsic_metadata_t {
  bit<7>  _pad0;
  bit<9>  egress_port;
  bit<19> enq_qdepth;
  bit<2>  enq_congest_stat;
  bit<18> enq_tstamp;
  bit<19> deq_qdepth;
  bit<2>  deq_congest_stat;
  bit<8>  app_pool_congest_stat;
  bit<18> deq_timedelta;
  bit<16> egress_rid;
  bit<1>  egress_rid_first;
  bit<7>  egress_qid;
  bit<3>  egress_cos;
  bit<1>  deflection_flag;
  bit<16> pkt_length;
}

struct egress_intrinsic_metadata_from_parser_t {
  bit<48> global_tstamp;
  bit<32> global_ver;
  bit<16> parser_err;
}

struct egress_intrinsic_metadata_for_deparser_t {
  bit<3> drop_ctl;
  bit<3> mirror_type;
  bit<1> coalesce_flush;
  bit<7> coalesce_length;
}

struct egress_intrinsic_metadata_for_output_port_t {
  bit<1> capture_tstamp_on_tx;
  bit<1> update_delay_on_tx;
}

enum HashAlgorithm_t {
  IDENTITY,
  RANDOM,
  XOR8,
  XOR16,
  XOR32,
  CRC8,
  CRC16,
  CRC32,
  CRC64,
  CUSTOM
}

enum MeterColor_t {
  GREEN,
  YELLOW,
  RED
}
|}

let prelude_t2na_extra =
  {|
struct ghost_intrinsic_metadata_t {
  bit<1>  ping_pong;
  bit<18> qlength;
  bit<11> qid;
  bit<2>  pipe_id;
}
|}

(* pipeline-state paths *)
let ig_hdr = "$pipe.ig_hdr"
let ig_md = "$pipe.ig_md"
let ig_intr = "$pipe.ig_intr_md"
let ig_prsr = "$pipe.ig_prsr_md"
let ig_dprsr = "$pipe.ig_dprsr_md"
let ig_tm = "$pipe.ig_tm_md"
let eg_hdr = "$pipe.eg_hdr"
let eg_md = "$pipe.eg_md"
let eg_intr = "$pipe.eg_intr_md"
let eg_prsr = "$pipe.eg_prsr_md"
let eg_dprsr = "$pipe.eg_dprsr_md"
let eg_oport = "$pipe.eg_oport_md"

type blocks = {
  bl_iprs : Ast.parser_decl;
  bl_ig : Ast.control_decl;
  bl_idep : Ast.control_decl;
  bl_eprs : Ast.parser_decl;
  bl_eg : Ast.control_decl;
  bl_edep : Ast.control_decl;
}

let blocks ctx : blocks =
  let resolve_names names =
    let parser n =
      match Hashtbl.find_opt ctx.parsers n with
      | Some d -> d
      | None -> fail "tofino: unknown parser %s" n
    in
    let control n =
      match Hashtbl.find_opt ctx.controls n with
      | Some d -> d
      | None -> fail "tofino: unknown control %s" n
    in
    match names with
    | [ ip; ig; id; ep; eg; ed ]
    (* t2na: a trailing ghost block runs concurrently with packet
       processing and does not affect single-packet tests; accepted and
       ignored (Tbl. 6) *)
    | [ ip; ig; id; ep; eg; ed; _ ] ->
        {
          bl_iprs = parser ip;
          bl_ig = control ig;
          bl_idep = control id;
          bl_eprs = parser ep;
          bl_eg = control eg;
          bl_edep = control ed;
        }
    | _ -> fail "tofino: Pipeline expects 6 block arguments (7 with a ghost)"
  in
  match Target_intf.find_instantiation ctx.prog with
  | Some ("Switch", [ Ast.ECall (EVar "Pipeline", args) ], _) ->
      resolve_names (List.map Target_intf.constructor_name args)
  | Some ("Pipeline", args, _) -> resolve_names (List.map Target_intf.constructor_name args)
  | Some (t, _, _) -> fail "tofino: expected Switch(Pipeline(...)), found %s" t
  | None -> fail "tofino: no package instantiation"

(* ------------------------------------------------------------------ *)
(* Parser reject semantics: drop in the ingress parser, continue with
   an unspecified header in the egress parser (Tbl. 6). *)

let on_reject : reject_hook =
 fun ctx _fr err st ->
  if st.phase = "ingress" then begin
    (* pad drop-path frames to the 64-byte minimum when the input may
       still grow, so the device actually reaches the parser *)
    let st = if st.sealed then st else pad_to_bytes ctx 64 st in
    [
      {
        br_cond = None;
        br_state =
          { (note ("ingress parser drop: " ^ err) st) with dropped = true; work = [] };
        br_label = "ig-reject:" ^ err;
      };
    ]
  end
  else
    [ { br_cond = None; br_state = pop_to_reject err st; br_label = "eg-reject:" ^ err } ]

(* ------------------------------------------------------------------ *)
(* Externs *)

(* extern instances resolve through {!Runtime.find_register_path} and
   friends, so state keyed by the declaring block's stable name
   persists across sequence packet boundaries *)

let extern : extern_hook =
 fun ctx fname args fr st ->
  let eval_st ?hint st e = Eval.eval ?hint ctx fr st e in
  match (fname, args) with
  | "invalidate", [ _ ] -> RUnit st
  | ("assert" | "assume"), [ cond ] ->
      let st, v = Eval.eval ctx fr st cond in
      RBranch [ { br_cond = Some v; br_state = st; br_label = fname } ]
  | ("sizeInBytes" | "sizeInBits"), [ arg ] ->
      let st, v = eval_st st arg in
      let factor = if fname = "sizeInBytes" then 8 else 1 in
      RVal (st, Expr.of_int ctx.ectx ~width:32 (Expr.width v / factor))
  | _, _ -> (
      match String.index_opt fname '.' with
      | Some i -> (
          let obj = String.sub fname 0 i in
          let meth = String.sub fname (i + 1) (String.length fname - i - 1) in
          match (meth, args) with
          (* Register<T, I> *)
          | "read", [ idx ] -> (
              match find_register_path st fr obj with
              | Some key -> (
                  let st, vidx = eval_st ~hint:32 st idx in
                  match Expr.is_const vidx with
                  | Some b -> (
                      match read_register st key (Bits.to_int b) with
                      | Some v -> RVal (st, v)
                      | None -> RVal (st, Expr.fresh_taint ctx.ectx 32))
                  | None -> RVal (st, Expr.fresh_taint ctx.ectx 32))
              | None -> fail "tofino: unknown register %s" obj)
          | "write", [ idx; v ] -> (
              match find_register_path st fr obj with
              | Some key -> (
                  let st, vidx = eval_st ~hint:32 st idx in
                  let st, vv = eval_st st v in
                  match Expr.is_const vidx with
                  | Some b -> RUnit (write_register st key (Bits.to_int b) vv)
                  | None ->
                      (* symbolic index: any cell may change (§5.3) *)
                      ignore vv;
                      RUnit (taint_register st key))
              | None -> fail "tofino: unknown register %s" obj)
          (* Hash<W>.get(data) — concolic *)
          | "get", [ data ] ->
              let st, vdata = eval_st st data in
              let st, r =
                concolic_call ctx ~name:(obj ^ ".get")
                  ~impl:(fun vals -> Checksums.crc32 (List.hd vals))
                  ~width:32 [ vdata ] st
              in
              RVal (st, r)
          (* Checksum.add / subtract collect data; update/verify produce it *)
          | ("add" | "subtract" | "subtract_all_and_deposit"), _ -> RUnit st
          | ("update" | "get_checksum"), data -> (
              match data with
              | [ d ] ->
                  let st, vdata = eval_st st d in
                  let st, r =
                    concolic_call ctx ~name:(obj ^ ".update")
                      ~impl:(fun vals -> Bits.zext (Checksums.csum16 (List.hd vals)) 16)
                      ~width:16 [ vdata ] st
                  in
                  RVal (st, r)
              | _ -> RVal (st, Expr.fresh_taint ctx.ectx 16))
          | "verify", _ -> RVal (st, Expr.fresh_taint ctx.ectx 1)
          (* counters / meters / lpf / wred: rapid prototyping via
             taint (§5.3) *)
          | "count", args -> (
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
          | ("execute" | "execute_log"), args ->
              (* unconfigured meters return GREEN (0); the cell still
                 records a tainted color (§5.3) *)
              let st =
                match find_meter_path st fr obj with
                | Some key -> (
                    match args with
                    | idx :: _ ->
                        let st, vidx = eval_st ~hint:32 st idx in
                        execute_meter_state st key
                          (Option.map Bits.to_int (Expr.is_const vidx))
                    | [] -> execute_meter_state st key (Some 0))
                | None -> st
              in
              RVal (st, Expr.zero ctx.ectx 8)
          | ("dequeue" | "enqueue"), _ -> RVal (st, Expr.fresh_taint ctx.ectx 8)
          (* RegisterAction-style apply *)
          | "apply", _ -> RVal (st, Expr.fresh_taint ctx.ectx 32)
          | "emit", _ -> RUnit st  (* Mirror/Resubmit/Digest .emit *)
          | _ -> fail "tofino: unsupported extern %s" fname)
      | None -> fail "tofino: unsupported extern %s" fname)

(* ------------------------------------------------------------------ *)
(* Pipeline template *)

let leaf st p = read_leaf st p
let setl p v st = write_leaf p v st

(* the intrinsic metadata Tofino prepends to the wire packet: all
   tainted except the ingress port *)
let prepend_ingress_metadata st =
  let ectx = state_ectx st in
  let md =
    Expr.concat
      (Expr.fresh_taint ectx 7) (* resubmit_flag .. _pad2 *)
      (Expr.concat (Expr.zext st.in_port 9) (Expr.fresh_taint ectx 48))
  in
  prepend_live md st

let prepend_egress_metadata port st =
  let ectx = Expr.ctx_of port in
  (* egress intrinsic metadata, parsed by the egress parser; width must
     match egress_intrinsic_metadata_t *)
  let fields =
    [
      Expr.fresh_taint ectx 7 (* _pad0 *);
      port;
      Expr.fresh_taint ectx (19 + 2 + 18 + 19 + 2 + 8 + 18 + 16 + 1 + 7 + 3 + 1 + 16);
    ]
  in
  let md = List.fold_left Expr.concat (Expr.zero ectx 0) fields in
  prepend_live md st

let rec pipeline_ops (b : blocks) : work list =
  [
    WOp
      ( "tofino:ig_parser",
        fun ctx st ->
          let st = { st with phase = "ingress" } in
          let st = prepend_ingress_metadata st in
          continue_
            (Step.enter_parser ctx b.bl_iprs
               [ Step.Packet; Step.Data ig_hdr; Step.Data ig_md; Step.Data ig_intr ]
               st) );
    WOp
      ( "tofino:ingress",
        fun ctx st ->
          continue_
            (Step.enter_control ctx b.bl_ig
               [
                 Step.Data ig_hdr;
                 Step.Data ig_md;
                 Step.Data ig_intr;
                 Step.Data ig_prsr;
                 Step.Data ig_dprsr;
                 Step.Data ig_tm;
               ]
               st) );
    WOp
      ( "tofino:ig_deparser",
        fun ctx st ->
          continue_
            (Step.enter_control ctx b.bl_idep
               [ Step.Packet; Step.Data ig_hdr; Step.Data ig_md; Step.Data ig_dprsr ]
               st) );
    WOp ("tofino:tm", fun ctx st -> traffic_manager b ctx st);
  ]

and egress_ops (b : blocks) : work list =
  [
    WOp
      ( "tofino:eg_parser",
        fun ctx st ->
          let st = { st with phase = "egress" } in
          continue_
            (Step.enter_parser ctx b.bl_eprs
               [ Step.Packet; Step.Data eg_hdr; Step.Data eg_md; Step.Data eg_intr ]
               st) );
    WOp
      ( "tofino:egress",
        fun ctx st ->
          continue_
            (Step.enter_control ctx b.bl_eg
               [
                 Step.Data eg_hdr;
                 Step.Data eg_md;
                 Step.Data eg_intr;
                 Step.Data eg_prsr;
                 Step.Data eg_dprsr;
                 Step.Data eg_oport;
               ]
               st) );
    WOp
      ( "tofino:eg_deparser",
        fun ctx st ->
          continue_
            (Step.enter_control ctx b.bl_edep
               [ Step.Packet; Step.Data eg_hdr; Step.Data eg_md; Step.Data eg_dprsr ]
               st) );
    WOp ("tofino:final", fun ctx st -> finalize ctx st);
  ]

(* Pad the generated frame to the 64-byte minimum.  A sealed input (a
   short-packet branch) cannot grow: such a frame is dropped by the
   device before processing. *)
and deliver ctx ~note:n ~port st : branch list =
  if st.sealed && input_width st < 64 * 8 then
    continue_ { (note "frame below 64B minimum: dropped" st) with dropped = true }
  else begin
    let st = pad_to_bytes ctx 64 st in
    continue_ (add_output ~note:n ~port ~data:st.live st)
  end

(* Traffic manager: drop_ctl, unwritten egress port, bypass_egress. *)
and traffic_manager (b : blocks) ctx st : branch list =
  let st = flush_emit st in
  let drop = Expr.neq (leaf st (ig_dprsr ^ ".drop_ctl")) (Expr.zero ctx.ectx 3) in
  let dropped reason st =
    let st = if st.sealed then st else pad_to_bytes ctx 64 st in
    { (note ("TM: " ^ reason) st) with dropped = true; work = [] }
  in
  let bypass_op =
    WOp
      ( "tofino:tm-bypass?",
        fun ctx st ->
          let port = leaf st (ig_tm ^ ".ucast_egress_port") in
          let bypass = Expr.eq (leaf st (ig_tm ^ ".bypass_egress")) (Expr.ones ctx.ectx 1) in
          let to_egress =
            let st = setl (eg_intr ^ ".egress_port") port st in
            let st = prepend_egress_metadata port st in
            push_work (egress_ops b) st
          in
          match
            Step.fork_cond ctx no_frame bypass
              ~then_:("tm:bypass", { st with work = [] })
              ~else_:("tm:egress", to_egress)
          with
          | branches ->
              List.concat_map
                (fun br ->
                  if br.br_label = "tm:bypass" then
                    List.map
                      (fun b2 ->
                        { b2 with br_cond = (match (br.br_cond, b2.br_cond) with
                            | Some a, Some b -> Some (Expr.band a b)
                            | Some a, None -> Some a
                            | None, c -> c) })
                      (deliver ctx ~note:"bypass-egress" ~port br.br_state)
                  else [ br ])
                branches )
  in
  let port_op =
    WOp
      ( "tofino:tm-port?",
        fun ctx st ->
          (* "egress port never written -> drop" (Tbl. 6), checked
             semantically: the port is initialized to the invalid-port
             sentinel, and the TM also drops when the program itself
             forwards to the sentinel value — the concrete model
             compares the value, so a syntactic written-ness check
             would disagree whenever a symbolic port can take 0x1FF.
             Constant ports short-circuit in fork_cond, so only a
             genuinely symbolic port forks here *)
          let port = leaf st (ig_tm ^ ".ucast_egress_port") in
          let invalid = Expr.eq port (Expr.of_int ctx.ectx ~width:9 invalid_port) in
          Step.fork_cond ctx no_frame invalid
            ~then_:("tm:invalid-port", dropped "egress port never set" st)
            ~else_:("tm:fwd-port", push_work [ bypass_op ] st) )
  in
  Step.fork_cond ctx no_frame drop
    ~then_:("tm:drop", dropped "drop_ctl" st)
    ~else_:("tm:fwd", push_work [ port_op ] st)

and finalize ctx st : branch list =
  let st = flush_emit st in
  let drop = Expr.neq (leaf st (eg_dprsr ^ ".drop_ctl")) (Expr.zero ctx.ectx 3) in
  let port = leaf st (eg_intr ^ ".egress_port") in
  match
    Step.fork_cond ctx no_frame drop
      ~then_:
        ( "eg:drop",
          { (if st.sealed then st else pad_to_bytes ctx 64 st) with dropped = true } )
      ~else_:("eg:deliver", st)
  with
  | branches ->
      List.concat_map
        (fun br ->
          if br.br_label = "eg:deliver" then
            List.map
              (fun b2 ->
                { b2 with br_cond = (match (br.br_cond, b2.br_cond) with
                    | Some a, Some b -> Some (Expr.band a b)
                    | Some a, None -> Some a
                    | None, c -> c) })
              (deliver ctx ~note:"egress" ~port br.br_state)
          else [ br ])
        branches

let make_init family ctx st =
  ctx.uninit_is_zero <- false;
  ignore family;
  let b = blocks ctx in
  let ihtyp, imtyp =
    match b.bl_iprs.p_params with
    | _ :: h :: m :: _ -> (h.Ast.par_typ, m.Ast.par_typ)
    | _ -> fail "tofino: ingress parser must have >= 3 parameters"
  in
  let ehtyp, emtyp =
    match b.bl_eprs.p_params with
    | _ :: h :: m :: _ -> (h.Ast.par_typ, m.Ast.par_typ)
    | _ -> fail "tofino: egress parser must have >= 3 parameters"
  in
  let auto_init =
    List.exists
      (function
        | Ast.DControl (_, annos) | Ast.DParser (_, annos) ->
            Ast.has_anno "auto_init_metadata" annos
        | _ -> false)
      ctx.prog
  in
  let md_init = if auto_init then init_zero ctx else init_taint ctx in
  let st = declare ctx ~init:(init_taint ctx) ihtyp ig_hdr st in
  let st = declare ctx ~init:md_init imtyp ig_md st in
  let st = declare ctx ~init:md_init (Ast.TName "ingress_intrinsic_metadata_t") ig_intr st in
  let st =
    declare ctx ~init:md_init (Ast.TName "ingress_intrinsic_metadata_from_parser_t") ig_prsr st
  in
  let st =
    declare ctx ~init:(init_zero ctx) (Ast.TName "ingress_intrinsic_metadata_for_deparser_t") ig_dprsr
      st
  in
  let st = declare ctx ~init:(init_zero ctx) (Ast.TName "ingress_intrinsic_metadata_for_tm_t") ig_tm st in
  (* the egress port starts "unwritten" (Tbl. 6) *)
  let st = setl (ig_tm ^ ".ucast_egress_port") (Expr.of_int ctx.ectx ~width:9 invalid_port) st in
  let st = declare ctx ~init:(init_taint ctx) ehtyp eg_hdr st in
  let st = declare ctx ~init:md_init emtyp eg_md st in
  let st = declare ctx ~init:md_init (Ast.TName "egress_intrinsic_metadata_t") eg_intr st in
  let st =
    declare ctx ~init:md_init (Ast.TName "egress_intrinsic_metadata_from_parser_t") eg_prsr st
  in
  let st =
    declare ctx ~init:(init_zero ctx) (Ast.TName "egress_intrinsic_metadata_for_deparser_t") eg_dprsr st
  in
  let st =
    declare ctx ~init:(init_zero ctx) (Ast.TName "egress_intrinsic_metadata_for_output_port_t") eg_oport
      st
  in
  push_work (pipeline_ops b) st

let make family : (module Target_intf.S) =
  (module struct
    let name = family_name family
    let prelude =
      match family with
      | Tna -> prelude_common
      | T2na -> prelude_common ^ prelude_t2na_extra
    let port_width = port_width
    let min_packet_bytes = Some 64
    let init = make_init family
    let extern = extern
    let on_reject = on_reject
  end)
