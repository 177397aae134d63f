(* Concrete pipelines per target plus the test-execution harness: load
   a generated test's control-plane configuration, inject its input
   packet, run the software model, and compare the observed output
   with the expectation (honoring don't-care masks).

   This is the validation loop of §7 ("Does P4Testgen produce correct
   tests?"): every generated test is executed on the corresponding
   software model. *)

module Bits = Bitv.Bits
open P4
open Interp

type verdict =
  | Pass
  | Wrong_output of string  (** observed behavior differs from the expectation *)
  | Crash of string  (** the toolchain/model raised (an "exception" bug) *)

(* ------------------------------------------------------------------ *)
(* Program preparation: same front end as the oracle *)

type prepared_sim = { cfg : cfg; arch : string }

let prepare ?(fault = Mutation.No_fault) ?(seed = 42) ~arch (source : string) : prepared_sim =
  let prelude_src =
    match Targets.Registry.find arch with
    | Some t ->
        let module T = (val t) in
        T.prelude
    | None -> failwith ("unknown arch " ^ arch)
  in
  let prog = P4.Parser.parse_program prelude_src @ P4.Parser.parse_program source in
  let prog = P4.Passes.fold prog in
  let tctx = P4.Typing.build prog in
  let prog = P4.Passes.elim_stack_indices tctx prog in
  { cfg = make_cfg ~fault ~seed ~arch prog tctx; arch }

(* ------------------------------------------------------------------ *)
(* v1model concrete pipeline *)

let error_code cfg e = Bits.of_int ~width:Typing.error_width (Typing.error_code cfg.tctx e)

let find_inst (cfg : cfg) =
  Testgen.Target_intf.find_instantiation cfg.prog

let run_v1model (cfg : cfg) st ~(port : int) (input : Bits.t) : (int * Bits.t) list option =
  if Bits.width input = 0 && cfg.fault = Mutation.Crash_zero_len then
    crash "BMv2 produced garbage on a 0-length packet";
  let p, vc, ig, eg, cc, dp =
    match find_inst cfg with
    | Some ("V1Switch", args, _) -> (
        match List.map Testgen.Target_intf.constructor_name args with
        | [ a; b; c; d; e; f ] ->
            ( Hashtbl.find cfg.parsers a,
              Hashtbl.find cfg.controls b,
              Hashtbl.find cfg.controls c,
              Hashtbl.find cfg.controls d,
              Hashtbl.find cfg.controls e,
              Hashtbl.find cfg.controls f )
        | _ -> failwith "bad V1Switch")
    | _ -> failwith "no V1Switch instantiation"
  in
  let htyp, mtyp =
    match p.Ast.p_params with
    | [ _; h; m; _ ] -> (h.Ast.par_typ, m.Ast.par_typ)
    | _ -> failwith "bad v1model parser"
  in
  declare cfg st ~init:Bits.zero htyp "$pipe.hdr";
  declare cfg st ~init:Bits.zero mtyp "$pipe.meta";
  declare cfg st ~init:Bits.zero (Ast.TName "standard_metadata_t") "$pipe.sm";
  write_leaf st "$pipe.sm.ingress_port" (Bits.of_int ~width:9 port);
  write_leaf st "$pipe.sm.packet_length" (Bits.of_int ~width:32 (Bits.width input / 8));
  let parser_b = [ BPacket; BData "$pipe.hdr"; BData "$pipe.meta"; BData "$pipe.sm" ] in
  let ctrl_b = [ BData "$pipe.hdr"; BData "$pipe.meta"; BData "$pipe.sm" ] in
  let max_rounds = 3 in
  (* pipeline rounds: recirculation and resubmission re-enter the
     ingress parser (Fig. 5) *)
  let rec round pkt n ~instance_type =
    st.pkt <- pkt;
    st.emitted <- Bits.zero 0;
    st.recirc <- false;
    st.resubmit <- false;
    st.clone_sess <- None;
    st.truncate_bytes <- None;
    write_leaf st "$pipe.sm.egress_spec" (Bits.zero 9);
    write_leaf st "$pipe.sm.egress_port" (Bits.zero 9);
    write_leaf st "$pipe.sm.instance_type" (Bits.of_int ~width:32 instance_type);
    (match run_parser cfg st p parser_b with
    | Ok () -> ()
    | Error e ->
        (* BMv2: the packet is not dropped; the header stays invalid *)
        write_leaf st "$pipe.sm.parser_error" (error_code cfg e));
    run_control cfg st vc [ BData "$pipe.hdr"; BData "$pipe.meta" ];
    run_control cfg st ig ctrl_b;
    if st.resubmit && n < max_rounds then round input (n + 1) ~instance_type:6
    else begin
      let spec = Bits.to_int (read_leaf st "$pipe.sm.egress_spec") in
      let mg = read_leaf st "$pipe.sm.mcast_grp" in
      let mcast_ports =
        if Bits.is_zero mg then None
        else
          List.find_map
            (fun (e : Testgen.Testspec.entry) ->
              if e.e_table = "$mcast" && e.e_action = "__mcast_group__"
                 && List.exists
                      (fun (_, m) ->
                        match m with
                        | Testgen.Testspec.MExact v -> Bits.equal (Bits.zext v 16) mg
                        | _ -> false)
                      e.e_keys
              then
                match (List.assoc_opt "port1" e.e_args, List.assoc_opt "port2" e.e_args) with
                | Some p1, Some p2 ->
                    Some (Bits.to_int (Bits.zext p1 9), Bits.to_int (Bits.zext p2 9))
                | _ -> None
              else None)
            st.entries
      in
      (* a replicated packet bypasses the unicast drop decision *)
      if spec = 511 && mcast_ports = None then None
      else begin
        (match mcast_ports with
        | Some (p1, _) -> write_leaf st "$pipe.sm.egress_port" (Bits.of_int ~width:9 p1)
        | None -> write_leaf st "$pipe.sm.egress_port" (Bits.of_int ~width:9 spec));
        run_control cfg st eg ctrl_b;
        run_control cfg st cc [ BData "$pipe.hdr"; BData "$pipe.meta" ];
        run_control cfg st dp [ BPacket; BData "$pipe.hdr" ];
        let deparsed = Bits.concat st.emitted st.pkt in
        let deparsed =
          match st.truncate_bytes with
          | Some bytes when Bits.width deparsed > bytes * 8 ->
              Bits.slice deparsed ~hi:(Bits.width deparsed - 1)
                ~lo:(Bits.width deparsed - (bytes * 8))
          | _ -> deparsed
        in
        if st.recirc && n < max_rounds then round deparsed (n + 1) ~instance_type:4
        else begin
          let spec2 = Bits.to_int (read_leaf st "$pipe.sm.egress_spec") in
          if spec2 = 511 && mcast_ports = None then None
          else begin
            let out_port = Bits.to_int (read_leaf st "$pipe.sm.egress_port") in
            let clones =
              match st.clone_sess with
              | Some sess when not (Bits.is_zero sess) ->
                  [ (Bits.to_int (Bits.slice sess ~hi:8 ~lo:0), deparsed) ]
              | _ -> []
            in
            (* second multicast copy *)
            let mcast_copy =
              match mcast_ports with
              | Some (_, p2) -> [ (p2, deparsed) ]
              | None -> []
            in
            Some (((out_port, deparsed) :: mcast_copy) @ clones)
          end
        end
      end
    end
  in
  round input 0 ~instance_type:0

(* ------------------------------------------------------------------ *)
(* eBPF concrete pipeline *)

let run_ebpf (cfg : cfg) st ~port (input : Bits.t) : (int * Bits.t) list option =
  ignore port;
  let p, f =
    match find_inst cfg with
    | Some ("ebpfFilter", args, _) -> (
        match List.map Testgen.Target_intf.constructor_name args with
        | [ a; b ] -> (Hashtbl.find cfg.parsers a, Hashtbl.find cfg.controls b)
        | _ -> failwith "bad ebpfFilter")
    | _ -> failwith "no ebpfFilter instantiation"
  in
  let htyp =
    match p.Ast.p_params with
    | [ _; h ] -> h.Ast.par_typ
    | _ -> failwith "bad ebpf parser"
  in
  declare cfg st ~init:(uninit cfg st) htyp "$pipe.hdr";
  declare cfg st ~init:Bits.zero Ast.TBool "$pipe.accept";
  st.pkt <- input;
  (* a sequence runs every packet on one state: drop the previous
     packet's deparsed headers *)
  st.emitted <- Bits.zero 0;
  match run_parser cfg st p [ BPacket; BData "$pipe.hdr" ] with
  | Error _ -> None (* a failing extract drops the packet in the kernel *)
  | Ok () ->
      run_control cfg st f [ BData "$pipe.hdr"; BData "$pipe.accept" ];
      if Bits.is_zero (read_leaf st "$pipe.accept") then None
      else begin
        (* implicit deparser: re-emit valid headers, then the payload *)
        let fr = { scopes = [ "$pipe" ]; ctrl = None; parser = None } in
        do_emit cfg fr st "$pipe.hdr" htyp;
        Some [ (0, Bits.concat st.emitted st.pkt) ]
      end

(* ------------------------------------------------------------------ *)
(* Tofino concrete pipeline *)

let run_tofino (cfg : cfg) st ~port (input : Bits.t) : (int * Bits.t) list option =
  if Bits.width input = 0 && cfg.fault = Mutation.Crash_zero_len then
    crash "model crash on zero-length packet";
  if Bits.width input < 64 * 8 then None (* sub-64B frames are dropped *)
  else begin
    let names =
      match find_inst cfg with
      | Some ("Switch", [ Ast.ECall (EVar "Pipeline", args) ], _) ->
          List.map Testgen.Target_intf.constructor_name args
      | Some ("Pipeline", args, _) -> List.map Testgen.Target_intf.constructor_name args
      | _ -> failwith "no Pipeline instantiation"
    in
    let ip, ig, id, ep, eg, ed =
      match names with
      | [ a; b; c; d; e; f ] ->
          ( Hashtbl.find cfg.parsers a,
            Hashtbl.find cfg.controls b,
            Hashtbl.find cfg.controls c,
            Hashtbl.find cfg.parsers d,
            Hashtbl.find cfg.controls e,
            Hashtbl.find cfg.controls f )
      | _ -> failwith "bad Pipeline"
    in
    let ihtyp, imtyp =
      match ip.Ast.p_params with
      | _ :: h :: m :: _ -> (h.Ast.par_typ, m.Ast.par_typ)
      | _ -> failwith "bad ingress parser"
    in
    let ehtyp, emtyp =
      match ep.Ast.p_params with
      | _ :: h :: m :: _ -> (h.Ast.par_typ, m.Ast.par_typ)
      | _ -> failwith "bad egress parser"
    in
    let u = uninit cfg st in
    declare cfg st ~init:u ihtyp "$pipe.ig_hdr";
    declare cfg st ~init:u imtyp "$pipe.ig_md";
    declare cfg st ~init:u (Ast.TName "ingress_intrinsic_metadata_t") "$pipe.ig_intr_md";
    declare cfg st ~init:u (Ast.TName "ingress_intrinsic_metadata_from_parser_t") "$pipe.ig_prsr_md";
    declare cfg st ~init:Bits.zero (Ast.TName "ingress_intrinsic_metadata_for_deparser_t")
      "$pipe.ig_dprsr_md";
    declare cfg st ~init:Bits.zero (Ast.TName "ingress_intrinsic_metadata_for_tm_t")
      "$pipe.ig_tm_md";
    write_leaf st "$pipe.ig_tm_md.ucast_egress_port" (Bits.of_int ~width:9 0x1FF);
    declare cfg st ~init:u ehtyp "$pipe.eg_hdr";
    declare cfg st ~init:u emtyp "$pipe.eg_md";
    declare cfg st ~init:u (Ast.TName "egress_intrinsic_metadata_t") "$pipe.eg_intr_md";
    declare cfg st ~init:u (Ast.TName "egress_intrinsic_metadata_from_parser_t") "$pipe.eg_prsr_md";
    declare cfg st ~init:Bits.zero (Ast.TName "egress_intrinsic_metadata_for_deparser_t")
      "$pipe.eg_dprsr_md";
    declare cfg st ~init:Bits.zero (Ast.TName "egress_intrinsic_metadata_for_output_port_t")
      "$pipe.eg_oport_md";
    (* the device prepends intrinsic metadata to the wire packet *)
    let md =
      Bits.concat (Bits.random cfg.rng 7)
        (Bits.concat (Bits.of_int ~width:9 port) (Bits.random cfg.rng 48))
    in
    st.pkt <- Bits.concat md input;
    st.emitted <- Bits.zero 0;
    let ig_bindings =
      [ BPacket; BData "$pipe.ig_hdr"; BData "$pipe.ig_md"; BData "$pipe.ig_intr_md" ]
    in
    match run_parser cfg st ip ig_bindings with
    | Error _ -> None (* ingress parser drops short packets *)
    | Ok () -> (
        run_control cfg st ig
          [
            BData "$pipe.ig_hdr";
            BData "$pipe.ig_md";
            BData "$pipe.ig_intr_md";
            BData "$pipe.ig_prsr_md";
            BData "$pipe.ig_dprsr_md";
            BData "$pipe.ig_tm_md";
          ];
        run_control cfg st id
          [ BPacket; BData "$pipe.ig_hdr"; BData "$pipe.ig_md"; BData "$pipe.ig_dprsr_md" ];
        let deparsed = Bits.concat st.emitted st.pkt in
        st.emitted <- Bits.zero 0;
        if not (Bits.is_zero (read_leaf st "$pipe.ig_dprsr_md.drop_ctl")) then None
        else begin
          let out_port = Bits.to_int (read_leaf st "$pipe.ig_tm_md.ucast_egress_port") in
          if out_port = 0x1FF then None
          else if Bits.is_ones (read_leaf st "$pipe.ig_tm_md.bypass_egress") then
            Some [ (out_port, deparsed) ]
          else begin
            (* egress pipe: prepend egress intrinsic metadata *)
            let emd =
              Bits.concat (Bits.random cfg.rng 7)
                (Bits.concat (Bits.of_int ~width:9 out_port) (Bits.random cfg.rng 130))
            in
            st.pkt <- Bits.concat emd deparsed;
            write_leaf st "$pipe.eg_intr_md.egress_port" (Bits.of_int ~width:9 out_port);
            let eg_bindings =
              [ BPacket; BData "$pipe.eg_hdr"; BData "$pipe.eg_md"; BData "$pipe.eg_intr_md" ]
            in
            (match run_parser cfg st ep eg_bindings with
            | Error _ -> () (* egress parser rejects do not drop (Tbl. 6) *)
            | Ok () -> ());
            run_control cfg st eg
              [
                BData "$pipe.eg_hdr";
                BData "$pipe.eg_md";
                BData "$pipe.eg_intr_md";
                BData "$pipe.eg_prsr_md";
                BData "$pipe.eg_dprsr_md";
                BData "$pipe.eg_oport_md";
              ];
            run_control cfg st ed
              [ BPacket; BData "$pipe.eg_hdr"; BData "$pipe.eg_md"; BData "$pipe.eg_dprsr_md" ];
            if not (Bits.is_zero (read_leaf st "$pipe.eg_dprsr_md.drop_ctl")) then None
            else Some [ (out_port, Bits.concat st.emitted st.pkt) ]
          end
        end)
  end

(* ------------------------------------------------------------------ *)
(* Test execution *)

(* one packet injection against an already-initialised interpreter
   state; sequences call this repeatedly on the same [st], so extern
   state (registers) persists between the injections *)
let run_one (p : prepared_sim) st ~(port : int) (input : Bits.t) :
    (int * Bits.t) list option =
  match p.arch with
  | "v1model" -> run_v1model p.cfg st ~port input
  | "ebpf_model" -> run_ebpf p.cfg st ~port input
  | "tna" | "t2na" -> run_tofino p.cfg st ~port input
  | a -> failwith ("unknown arch " ^ a)

let run_packet (p : prepared_sim) ~(entries : Testgen.Testspec.entry list) ~(port : int)
    (input : Bits.t) : (int * Bits.t) list option =
  let st = fresh_st p.cfg in
  st.entries <- entries;
  run_one p st ~port input

(* a control-plane register write: update the cell if the declaring
   block has already run, otherwise pre-seed an array the declaration
   will keep (and grow to the declared size, preserving contents) *)
let apply_reg_write st (r : Testgen.Testspec.register_init) =
  match Hashtbl.find_opt st.registers r.r_name with
  | Some arr ->
      if r.r_index >= 0 && r.r_index < Array.length arr then
        arr.(r.r_index) <- Bits.zext r.r_value (Bits.width arr.(0))
  | None ->
      if r.r_index >= 0 then begin
        let arr = Array.make (r.r_index + 1) (Bits.zero (Bits.width r.r_value)) in
        arr.(r.r_index) <- r.r_value;
        Hashtbl.replace st.registers r.r_name arr
      end

let compare_packet (exp : Testgen.Testspec.packet) ((port, data) : int * Bits.t) :
    string option =
  if Bits.to_int exp.port <> port then
    Some (Printf.sprintf "port mismatch: expected %d, got %d" (Bits.to_int exp.port) port)
  else if Bits.width exp.data <> Bits.width data then
    Some
      (Printf.sprintf "length mismatch: expected %d bits, got %d" (Bits.width exp.data)
         (Bits.width data))
  else begin
    let care = Bits.lognot exp.dontcare in
    if Bits.equal (Bits.logand exp.data care) (Bits.logand data care) then None
    else
      Some
        (Printf.sprintf "payload mismatch: expected %s, got %s (mask %s)"
           (Bits.to_hex exp.data) (Bits.to_hex data) (Bits.to_hex care))
  end

let compare_outputs (exp : Testgen.Testspec.packet list)
    (observed : (int * Bits.t) list option) : verdict =
  match (exp, observed) with
  | [], None -> Pass
  | [], Some outs ->
      Wrong_output
        (Printf.sprintf "expected drop, got %d packet(s)" (List.length outs))
  | exp, None ->
      Wrong_output (Printf.sprintf "expected %d packet(s), got drop" (List.length exp))
  | exp, Some outs ->
      if List.length exp <> List.length outs then
        Wrong_output
          (Printf.sprintf "expected %d packet(s), got %d" (List.length exp)
             (List.length outs))
      else begin
        match
          List.find_map (fun (e, o) -> compare_packet e o) (List.combine exp outs)
        with
        | Some msg -> Wrong_output msg
        | None -> Pass
      end

(* Execute a whole test — possibly a multi-packet sequence — against
   ONE interpreter state: registers written by an earlier injection
   are visible to the later ones (the state-continuity invariant the
   oracle's sequence mode assumes).  Control-plane steps between
   injections take effect before the next packet. *)
let run_test (p : prepared_sim) (t : Testgen.Testspec.t) : verdict =
  let st = fresh_st p.cfg in
  st.entries <- t.entries;
  List.iter (apply_reg_write st) t.registers;
  let npkts = ref 0 in
  let inject (input : Testgen.Testspec.packet) outputs =
    incr npkts;
    (* fault injection: a buggy switch re-initialises register state
       between the packets of a sequence *)
    if !npkts > 1 && p.cfg.fault = Mutation.Register_reset_between_packets then
      Hashtbl.reset st.registers;
    match run_one p st ~port:(Bits.to_int input.port) input.data with
    | exception Sim_crash msg -> Crash msg
    | exception Reject e -> Crash ("unhandled parser reject: " ^ e)
    | exception Failure msg -> Crash msg
    | observed -> (
        match compare_outputs outputs observed with
        | Pass -> Pass
        | v ->
            if !npkts = 1 && not (Testgen.Testspec.is_sequence t) then v
            else
              (match v with
              | Wrong_output msg ->
                  Wrong_output (Printf.sprintf "packet #%d: %s" !npkts msg)
              | v -> v))
  in
  let rec steps = function
    | [] -> Pass
    | s :: rest -> (
        match s with
        | Testgen.Testspec.SEntry e ->
            st.entries <- st.entries @ [ e ];
            steps rest
        | Testgen.Testspec.SRegister r ->
            apply_reg_write st r;
            steps rest
        | Testgen.Testspec.SInject { input; outputs } -> (
            match inject input outputs with Pass -> steps rest | v -> v))
  in
  steps t.steps

type summary = { passed : int; wrong : int; crashed : int; total : int }

let run_suite (p : prepared_sim) (tests : Testgen.Testspec.t list) :
    summary * (Testgen.Testspec.t * verdict) list =
  let results = List.map (fun t -> (t, run_test p t)) tests in
  let count f = List.length (List.filter (fun (_, v) -> f v) results) in
  ( {
      passed = count (fun v -> v = Pass);
      wrong = count (function Wrong_output _ -> true | _ -> false);
      crashed = count (function Crash _ -> true | _ -> false);
      total = List.length results;
    },
    results )
