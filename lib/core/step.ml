(* The symbolic small-step interpreter.

   [step] pops one work item from a state's continuation stack and
   returns the resulting branches ([None] when the stack is empty and
   the path is complete).  Targets build the initial stack with
   {!enter_parser} / {!enter_control} / [WOp] glue (§5.1.2); every P4
   construct below has its default interpretation here, and targets
   override behavior through {!Runtime.ctx} hooks. *)

module Expr = Smt.Expr
module Bits = Bitv.Bits
open P4
open Runtime

(* ------------------------------------------------------------------ *)
(* Frames and block entry *)

type binding =
  | Data of string  (** bind the parameter to this pipeline-state path *)
  | Packet  (** packet_in / packet_out parameter *)

let fresh_prefix ctx name = fresh_name ctx ("$f_" ^ name)

(* [stable] keys stateful-extern instances (registers, counters,
   meters) by the declaring block's type name instead of the fresh
   per-invocation [prefix], so the same instance resolves to the same
   cells on every invocation — the state-continuity invariant behind
   recirculation and multi-packet test sequences.  [add_register] &
   co. are create-if-absent, so re-entering the block keeps the
   contents. *)
let declare_locals ctx prefix ?(stable = prefix) (locals : Ast.local_decl list) st =
  let inst_size args = match args with Ast.EInt { iv; _ } :: _ -> min iv 1024 | _ -> 16 in
  List.fold_left
    (fun st l ->
      match l with
      | Ast.LVar (t, n, _) ->
          declare ctx ~init:(init_uninit ctx) t (prefix ^ "." ^ n) st
      | Ast.LConst (t, n, _) -> declare ctx ~init:(init_zero ctx) t (prefix ^ "." ^ n) st
      | Ast.LInstantiation (TSpec (("register" | "Register"), (elem :: _)), args, n) ->
          let width = Typing.width_of ctx.tctx elem in
          add_register (stable ^ "." ^ n) ~size:(inst_size args) ~width st
      | Ast.LInstantiation
          ( ( TName ("counter" | "direct_counter")
            | TSpec (("counter" | "Counter" | "DirectCounter"), _) ),
            args,
            n ) ->
          (* counter cells hold packet/byte counts the data plane never
             reads back; 32 bits of count is plenty for a test *)
          add_counter (stable ^ "." ^ n) ~size:(inst_size args) ~width:32 st
      | Ast.LInstantiation
          ( ( TName ("meter" | "direct_meter")
            | TSpec (("meter" | "Meter" | "DirectMeter"), _) ),
            args,
            n ) ->
          (* meter cells record the last (tainted) color *)
          add_meter (stable ^ "." ^ n) ~size:(inst_size args) ~width:8 st
      | Ast.LInstantiation ((TSpec ("value_set", [ _ ]) as t), _, n) ->
          (* parser value set: membership is control-plane state (§6) *)
          { st with vartypes = Env.add (prefix ^ "." ^ n) t st.vartypes }
      | Ast.LInstantiation _ | Ast.LAction _ | Ast.LTable _ -> st)
    st locals

let init_locals ctx prefix fr (locals : Ast.local_decl list) st =
  (* initializers run in scope order *)
  List.fold_left
    (fun st l ->
      match l with
      | Ast.LVar (t, n, Some e) ->
          let w = Typing.width_of ctx.tctx t in
          let st, v = Eval.eval ~hint:w ctx fr st e in
          write_leaf (prefix ^ "." ^ n) (Expr.zext v w) st
      | Ast.LConst (t, n, e) ->
          let w = Typing.width_of ctx.tctx t in
          let st, v = Eval.eval ~hint:w ctx fr st e in
          write_leaf (prefix ^ "." ^ n) (Expr.zext v w) st
      | _ -> st)
    st locals

(* The calling convention (DESIGN.md, "Whole-program semantics").
   [inout] and [out] parameters are bound by reference to the caller's
   path; an [out] parameter first resets the caller's leaves to
   uninitialized, with headers invalid.  [in] and directionless
   parameters get a private copy under [prefix], because the front end
   does not reject writes to them.  Returns the by-reference table of
   the block's frame. *)
let bind_params ctx prefix (params : Ast.param list) (bindings : binding list) st =
  List.fold_left2
    (fun (st, refs) (p : Ast.param) b ->
      match (b, p.par_dir) with
      | Packet, _ -> (st, refs)
      | Data src, Ast.DirInOut -> (st, (p.par_name, (src, p.par_typ)) :: refs)
      | Data src, Ast.DirOut ->
          let st = fill ctx ~init:(init_uninit ctx) p.par_typ src st in
          (st, (p.par_name, (src, p.par_typ)) :: refs)
      | Data src, (Ast.DirIn | Ast.DirNone) ->
          let dst = prefix ^ "." ^ p.par_name in
          let st = copy_tree ctx p.par_typ ~src ~dst st in
          ({ st with vartypes = Env.add dst p.par_typ st.vartypes }, refs))
    (st, []) params bindings

(** Queue execution of a control block bound to pipeline-state paths. *)
let enter_control ctx (cd : Ast.control_decl) (bindings : binding list) st =
  let prefix = fresh_prefix ctx cd.c_name in
  let st, refs = bind_params ctx prefix cd.c_params bindings st in
  let st = declare_locals ctx prefix ~stable:cd.c_name cd.c_locals st in
  let fr = { fr_scopes = [ prefix ]; fr_params = refs; fr_ctrl = Some cd; fr_parser = None } in
  let st = init_locals ctx prefix fr cd.c_locals st in
  let st = push_work [ WExitFrame (KControl, cd.c_name) ] st in
  let st = push_stmts fr cd.c_body st in
  note ("enter control " ^ cd.c_name) st

(** Queue execution of a parser bound to pipeline-state paths. *)
let enter_parser ctx (pd : Ast.parser_decl) (bindings : binding list) st =
  let prefix = fresh_prefix ctx pd.p_name in
  let st, refs = bind_params ctx prefix pd.p_params bindings st in
  let st = declare_locals ctx prefix ~stable:pd.p_name pd.p_locals st in
  let fr = { fr_scopes = [ prefix ]; fr_params = refs; fr_ctrl = None; fr_parser = Some pd } in
  let st = init_locals ctx prefix fr pd.p_locals st in
  let st = push_work [ WExitFrame (KParserFrame, pd.p_name) ] st in
  let st = push_work [ WParserState (fr, "start") ] st in
  (* a fresh parser invocation restarts the loop-unrolling budget *)
  note ("enter parser " ^ pd.p_name) { st with state_visits = Env.empty }

let invoke_action ctx (fr : frame) (decl : Ast.action_decl) (args : (Ast.param * Expr.t) list) st =
  let prefix = fresh_prefix ctx decl.act_name in
  let st =
    List.fold_left
      (fun st ((p : Ast.param), v) ->
        let st = declare ctx ~init:(init_zero ctx) p.par_typ (prefix ^ "." ^ p.par_name) st in
        write_leaf (prefix ^ "." ^ p.par_name) v st)
      st args
  in
  let fr' = { fr with fr_scopes = prefix :: fr.fr_scopes } in
  let st = push_work [ WExitFrame (KAction, decl.act_name) ] st in
  push_stmts fr' decl.act_body st

(* ------------------------------------------------------------------ *)
(* Lookahead hoisting *)

let rec find_lookahead (e : Ast.expr) : Ast.expr option =
  match e with
  | ECall (EMember (_, "lookahead"), _) -> Some e
  | EMember (b, _) | ESlice (b, _, _) | ECast (_, b) | EUnop (_, b) -> find_lookahead b
  | EIndex (a, b) | EBinop (_, a, b) | EMask (a, b) | ERange (a, b) -> (
      match find_lookahead a with Some r -> Some r | None -> find_lookahead b)
  | ETernary (a, b, c) -> (
      match find_lookahead a with
      | Some r -> Some r
      | None -> ( match find_lookahead b with Some r -> Some r | None -> find_lookahead c))
  | ECall (f, args) ->
      List.fold_left
        (fun acc a -> match acc with Some _ -> acc | None -> find_lookahead a)
        (find_lookahead f) args
  | EList es ->
      List.fold_left
        (fun acc a -> match acc with Some _ -> acc | None -> find_lookahead a)
        None es
  | _ -> None

let rec replace_expr ~target ~by (e : Ast.expr) : Ast.expr =
  if e = target then by
  else
    let go = replace_expr ~target ~by in
    match e with
    | EMember (b, f) -> EMember (go b, f)
    | EIndex (a, b) -> EIndex (go a, go b)
    | ESlice (b, hi, lo) -> ESlice (go b, hi, lo)
    | ECast (t, b) -> ECast (t, go b)
    | EUnop (op, b) -> EUnop (op, go b)
    | EBinop (op, a, b) -> EBinop (op, go a, go b)
    | ETernary (a, b, c) -> ETernary (go a, go b, go c)
    | ECall (f, args) -> ECall (go f, List.map go args)
    | EList es -> EList (List.map go es)
    | EMask (a, b) -> EMask (go a, go b)
    | ERange (a, b) -> ERange (go a, go b)
    | e -> e

(* Hoist the first lookahead out of [exprs]; [k] resumes with the
   rewritten expressions once none remain. *)
let rec hoist_lookaheads ctx fr st (exprs : Ast.expr list) k : branch list =
  let found = List.fold_left (fun acc e -> match acc with Some _ -> acc | None -> find_lookahead e) None exprs in
  match found with
  | None -> k st exprs
  | Some (ECall (EMember (_, "lookahead"), tyargs) as call) ->
      let w =
        match tyargs with
        | [ Ast.ETypeArg t ] -> Typing.width_of ctx.tctx t
        | _ -> fail "lookahead requires a type argument"
      in
      let outcomes = peek_bits ctx w st in
      List.concat_map
        (function
          | TakeOk (st', bits) ->
              let tmp = fresh_name ctx "$la" in
              let scope = List.hd fr.fr_scopes in
              let st' = declare ctx ~init:(init_zero ctx) (Ast.TBit w) (scope ^ "." ^ tmp) st' in
              let st' = write_leaf (scope ^ "." ^ tmp) bits st' in
              let exprs' =
                List.map (replace_expr ~target:call ~by:(Ast.EVar tmp)) exprs
              in
              hoist_lookaheads ctx fr st' exprs' k
          | TakeShort st' ->
              ctx.reject_hook ctx fr "PacketTooShort" (note "lookahead: too short" st'))
        outcomes
  | Some _ -> assert false

(* ------------------------------------------------------------------ *)
(* Branching helpers *)

let fork_cond ctx fr cond ~then_:(lt, st_t) ~else_:(le, st_e) : branch list =
  ignore ctx;
  ignore fr;
  if Expr.is_true cond then [ { br_cond = None; br_state = st_t; br_label = lt } ]
  else if Expr.is_false cond then [ { br_cond = None; br_state = st_e; br_label = le } ]
  else begin
    let taint = Expr.tainted cond in
    let mark st = if taint then { st with ctrl_taint = true } else st in
    [
      { br_cond = Some cond; br_state = mark st_t; br_label = lt };
      { br_cond = Some (Expr.bnot cond); br_state = mark st_e; br_label = le };
    ]
  end

(* ------------------------------------------------------------------ *)
(* Packet builtins *)

let rec do_extract ctx fr st (harg : Ast.expr) : branch list =
  (* resolve, advancing stack cursors for .next; Tofino-style targets
     also extract struct-typed intrinsic metadata, so any fixed-width
     composite is accepted (validity only applies to headers) *)
  match Eval.lvalue_of ctx fr st harg with
  | exception Exec_error msg
    when (match harg with Ast.EMember (_, "next") -> true | _ -> false) ->
      (* extracting past the end of a header stack *)
      ignore msg;
      ctx.reject_hook ctx fr "StackOutOfBounds" (note "stack overflow in extract" st)
  | lv -> do_extract_into ctx fr st harg lv

and do_extract_into ctx fr st (harg : Ast.expr) lv : branch list =
  let typ = lv.Eval.lv_typ in
  let is_header = Typing.is_header ctx.tctx typ in
  let w = Typing.width_of ctx.tctx typ in
  let bump_stack st =
    match harg with
    | Ast.EMember (b, "next") ->
        let base = Eval.lvalue_of ctx fr st b in
        let next = read_leaf st (base.lv_path ^ ".$next") in
        write_leaf (base.lv_path ^ ".$next") (Expr.add next (Expr.of_int ctx.ectx ~width:32 1)) st
    | _ -> st
  in
  List.concat_map
    (function
      | TakeOk (st', bits) ->
          let st' = Eval.write_tree ctx st' typ lv.lv_path bits in
          let st' =
            if is_header then write_leaf (lv.lv_path ^ ".$valid") (Expr.tru ctx.ectx) st' else st'
          in
          let st' = bump_stack st' in
          continue_ (note (Printf.sprintf "extract %s (%d bits)" lv.lv_path w) st')
      | TakeShort st' ->
          (* the header stays invalid with undefined content *)
          ctx.reject_hook ctx fr "PacketTooShort"
            (note (Printf.sprintf "extract %s: packet too short" lv.lv_path) st'))
    (take_bits ctx w st)

let do_advance ctx fr st (arg : Ast.expr) : branch list =
  let _, v = Eval.eval ~hint:32 ctx fr st arg in
  match Expr.is_const v with
  | Some b ->
      let w = Bits.to_int b in
      List.concat_map
        (function
          | TakeOk (st', _) -> continue_ (note (Printf.sprintf "advance %d" w) st')
          | TakeShort st' -> ctx.reject_hook ctx fr "PacketTooShort" st')
        (take_bits ctx w st)
  | None ->
      (* a dynamic advance amount needs symbolic-width slicing, which
         first-order bitvector logic cannot express (§2.3 challenge 4);
         like P4Testgen we branch over the concrete byte offsets *)
      let outcomes = ref [] in
      for bytes = 0 to 4 do
        let w = bytes * 8 in
        let cond = Expr.eq v (Expr.of_int ctx.ectx ~width:(Expr.width v) w) in
        List.iter
          (function
            | TakeOk (st', _) ->
                outcomes :=
                  { br_cond = Some cond; br_state = st'; br_label = Printf.sprintf "advance=%d" w }
                  :: !outcomes
            | TakeShort _ -> ())
          (take_bits ctx w st)
      done;
      List.rev !outcomes

let rec emit_one ctx fr (harg_path : string) (htyp : Ast.typ) st : branch list =
  match Typing.resolve ctx.tctx htyp with
  | Ast.TName n when Typing.header_fields ctx.tctx n <> None ->
      let valid = read_leaf st (harg_path ^ ".$valid") in
      let bits = Eval.header_emit_bits ctx st n harg_path in
      if Expr.is_true valid then continue_ (emit_bits bits st)
      else if Expr.is_false valid then continue_ st
      else
        fork_cond ctx fr valid
          ~then_:("emit:" ^ harg_path, emit_bits bits st)
          ~else_:("skip-emit:" ^ harg_path, st)
  | Ast.TName n -> (
      let members =
        match Typing.struct_fields ctx.tctx n with
        | Some fs -> Some fs
        | None -> Typing.union_fields ctx.tctx n
      in
      match members with
      | Some fs ->
          (* emit every member in order; queue as work so each fork is
             handled independently *)
          let ops =
            List.map
              (fun f ->
                WOp
                  ( "emit." ^ f.Ast.f_name,
                    fun ctx st -> emit_one ctx fr (harg_path ^ "." ^ f.Ast.f_name) f.Ast.f_typ st ))
              fs
          in
          continue_ (push_work ops st)
      | None -> fail "emit of unsupported type %s" n)
  | Ast.TStack (h, n) ->
      let ops =
        List.init n (fun i ->
            WOp
              ( Printf.sprintf "emit[%d]" i,
                fun ctx st -> emit_one ctx fr (Printf.sprintf "%s[%d]" harg_path i) (Ast.TName h) st ))
      in
      continue_ (push_work ops st)
  | _ -> fail "emit of non-header"

(* Two-argument extract: the header's (unique, trailing) varbit field
   receives [lenarg] bits.  A dynamic length cannot be expressed in
   first-order bitvector logic (§2.3 challenge 4), so like P4Testgen we
   branch over the concrete byte-aligned candidate lengths. *)
let do_extract_varbit ctx fr st (harg : Ast.expr) (lenarg : Ast.expr) : branch list =
  let lv = Eval.lvalue_of ctx fr st harg in
  let hname =
    match lv.Eval.lv_typ with
    | Ast.TName n when Typing.header_fields ctx.tctx n <> None -> n
    | _ -> fail "varbit extract into non-header"
  in
  let fields = Option.get (Typing.header_fields ctx.tctx hname) in
  let maxw =
    match
      List.find_map
        (fun f ->
          match Typing.resolve ctx.tctx f.Ast.f_typ with
          | Ast.TVarbit w -> Some w
          | _ -> None)
        fields
    with
    | Some w -> w
    | None -> fail "two-argument extract on a header without a varbit field"
  in
  let st, lenv = Eval.eval ~hint:32 ctx fr st lenarg in
  let lenv = Expr.zext lenv 32 in
  let extract_with st (len : int) : branch list =
    List.concat_map
      (fun outcome ->
        match outcome with
        | TakeOk (st', bits) ->
            let total = Expr.width bits in
            (* distribute the extracted bits across the fields, the
               varbit field receiving exactly [len] of them *)
            let st', _ =
              List.fold_left
                (fun (st', off) (f : Ast.field) ->
                  let fpath = lv.Eval.lv_path ^ "." ^ f.f_name in
                  match Typing.resolve ctx.tctx f.Ast.f_typ with
                  | Ast.TVarbit mw ->
                      let fb =
                        if len = 0 then Expr.zero ctx.ectx mw
                        else
                          Expr.concat
                            (Expr.slice bits ~hi:(total - off - 1) ~lo:(total - off - len))
                            (Expr.zero ctx.ectx (mw - len))
                      in
                      let st' = write_leaf fpath fb st' in
                      let st' = write_leaf (fpath ^ ".$vblen") (Expr.of_int ctx.ectx ~width:32 len) st' in
                      (st', off + len)
                  | t ->
                      let w = Typing.width_of ctx.tctx t in
                      let fb = Expr.slice bits ~hi:(total - off - 1) ~lo:(total - off - w) in
                      (Eval.write_tree ctx st' t fpath fb, off + w))
                (st', 0) fields
            in
            let st' = write_leaf (lv.Eval.lv_path ^ ".$valid") (Expr.tru ctx.ectx) st' in
            continue_ (note (Printf.sprintf "extract %s (varbit %d)" lv.Eval.lv_path len) st')
        | TakeShort st' ->
            ctx.reject_hook ctx fr "PacketTooShort"
              (note (Printf.sprintf "extract %s: packet too short" lv.Eval.lv_path) st'))
      (take_bits ctx (Typing.width_of ctx.tctx (Ast.TName hname) - maxw + len) st)
  in
  match Expr.is_const lenv with
  | Some b ->
      let len = Bits.to_int b in
      if len > maxw then ctx.reject_hook ctx fr "HeaderTooShort" st
      else extract_with st len
  | None ->
      (* candidate byte-aligned lengths, plus an overflow reject branch *)
      let candidates = List.init ((maxw / 8) + 1) (fun i -> i * 8) in
      let branches =
        List.concat_map
          (fun len ->
            let cond = Expr.eq lenv (Expr.of_int ctx.ectx ~width:32 len) in
            List.map
              (fun b ->
                { b with
                  br_cond =
                    Some
                      (match b.br_cond with
                      | Some c -> Expr.band cond c
                      | None -> cond) })
              (extract_with st len))
          candidates
      in
      let over = Expr.ugt lenv (Expr.of_int ctx.ectx ~width:32 maxw) in
      let reject_branches =
        List.map
          (fun b ->
            { b with
              br_cond =
                Some
                  (match b.br_cond with
                  | Some c -> Expr.band over c
                  | None -> over) })
          (ctx.reject_hook ctx fr "HeaderTooShort" st)
      in
      branches @ reject_branches

(* ------------------------------------------------------------------ *)
(* Table application plumbing *)

let push_applied ctx fr (ap : Tables.applied) ~after st_extra : branch list =
  ignore st_extra;
  let st = ap.Tables.ap_state in
  let st = cover Ast.no_pos st in
  let st = push_work after st in
  let decl = Tables.action_decl ctx fr ap.ap_action in
  let st = invoke_action ctx fr decl ap.ap_args st in
  [
    {
      br_cond = ap.ap_cond;
      br_state = note ("action " ^ ap.ap_action) st;
      br_label = ap.ap_label;
    };
  ]

let apply_table ctx fr st tbl ~after : branch list =
  List.concat_map (fun ap -> push_applied ctx fr ap ~after st) (Tables.apply ctx fr st tbl)

(* recognizers for table-result conditions *)
let rec table_of_cond fr (e : Ast.expr) :
    (Ast.table * [ `Hit | `Miss ]) option =
  match e with
  | EMember (ECall (EMember (EVar t, "apply"), []), "hit") ->
      Option.map (fun tb -> (tb, `Hit)) (find_table fr t)
  | EMember (ECall (EMember (EVar t, "apply"), []), "miss") ->
      Option.map (fun tb -> (tb, `Miss)) (find_table fr t)
  | EUnop (LNot, inner) ->
      Option.map
        (fun (tb, s) -> (tb, match s with `Hit -> `Miss | `Miss -> `Hit))
        (table_of_cond fr inner)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec exec_stmt ctx (fr : frame) st (s : Ast.stmt) : branch list =
  match s with
  | SEmpty -> continue_ st
  | SBlock b -> continue_ (push_stmts fr b st)
  | SAssign (pos, lhs, rhs) ->
      hoist_lookaheads ctx fr st [ rhs ]
        (fun st exprs ->
          let rhs = List.hd exprs in
          let st = cover pos st in
          let lv = Eval.lvalue_of ctx fr st lhs in
          if Typing.is_header ctx.tctx lv.lv_typ || Typing.is_struct ctx.tctx lv.lv_typ then
            (* composite copy, including validity bits *)
            continue_ (Eval.copy_lvalue ctx fr st ~src:rhs ~dst:lhs)
          else begin
            let w = Typing.width_of ctx.tctx lv.lv_typ in
            let w = match lv.lv_slice with Some (hi, lo) -> hi - lo + 1 | None -> w in
            let st, v = Eval.eval ~hint:w ctx fr st rhs in
            let v = if Expr.width v <> w then Expr.zext v w else v in
            continue_ (Eval.write_lvalue ctx fr st lhs v)
          end)
  | SCall (pos, f, args) -> exec_call ctx fr (cover pos st) f args
  | SIf (pos, cond, then_, else_) -> (
      let st = cover pos st in
      match table_of_cond fr cond with
      | Some (tbl, sense) ->
          List.concat_map
            (fun (ap : Tables.applied) ->
              let hit_branch = match sense with `Hit -> ap.ap_hit | `Miss -> not ap.ap_hit in
              let body = if hit_branch then then_ else else_ in
              push_applied ctx fr ap ~after:(List.map (fun s -> WStmt (fr, s)) body) st)
            (Tables.apply ctx fr st tbl)
      | None ->
          hoist_lookaheads ctx fr st [ cond ] (fun st exprs ->
              let cond = List.hd exprs in
              let st, v = Eval.eval ctx fr st cond in
              fork_cond ctx fr v
                ~then_:("then", push_stmts fr then_ st)
                ~else_:("else", push_stmts fr else_ st)))
  | SSwitch (pos, e, cases) -> (
      let st = cover pos st in
      match e with
      | EMember (ECall (EMember (EVar t, "apply"), []), "action_run") -> (
          match find_table fr t with
          | Some tbl ->
              List.concat_map
                (fun (ap : Tables.applied) ->
                  let body = switch_body_for cases ap.Tables.ap_action in
                  push_applied ctx fr ap ~after:(List.map (fun s -> WStmt (fr, s)) body) st)
                (Tables.apply ctx fr st tbl)
          | None -> fail "switch on unknown table %s" t)
      | _ -> fail "switch is only supported on table.apply().action_run")
  | SVarDecl (_, t, n, init) -> (
      let scope = List.hd fr.fr_scopes in
      let path = scope ^ "." ^ n in
      let st = declare ctx ~init:(init_uninit ctx) t path st in
      match init with
      | None -> continue_ st
      | Some e ->
          hoist_lookaheads ctx fr st [ e ] (fun st exprs ->
              let e = List.hd exprs in
              let w = Typing.width_of ctx.tctx t in
              let st, v = Eval.eval ~hint:w ctx fr st e in
              continue_ (write_leaf path (Expr.zext v w) st)))
  | SConstDecl (_, t, n, e) ->
      let scope = List.hd fr.fr_scopes in
      let path = scope ^ "." ^ n in
      let st = declare ctx ~init:(init_zero ctx) t path st in
      let w = Typing.width_of ctx.tctx t in
      let st, v = Eval.eval ~hint:w ctx fr st e in
      continue_ (write_leaf path (Expr.zext v w) st)
  | SReturn (pos, _) -> continue_ (cover pos (pop_to_exit [ KAction; KControl ] st))
  | SExit pos -> continue_ (cover pos (pop_to_exit [ KControl ] st))

and switch_body_for cases action =
  (* first case listing the action; otherwise the default case *)
  let matching =
    List.find_opt (fun c -> List.mem action c.Ast.sw_labels) cases
  in
  let chosen =
    match matching with
    | Some c -> Some c
    | None -> List.find_opt (fun c -> List.mem "default" c.Ast.sw_labels) cases
  in
  match chosen with Some { sw_body = Some b; _ } -> b | _ -> []

and exec_call ctx fr st (f : Ast.expr) (args : Ast.expr list) : branch list =
  match (f, args) with
  (* packet operations *)
  | EMember (pkt, "extract"), [ harg ] when is_packet_ref st fr pkt -> do_extract ctx fr st harg
  | EMember (pkt, "extract"), [ harg; lenarg ] when is_packet_ref st fr pkt ->
      do_extract_varbit ctx fr st harg lenarg
  | EMember (pkt, "advance"), [ arg ] when is_packet_ref st fr pkt -> do_advance ctx fr st arg
  | EMember (pkt, "emit"), [ harg ] when is_packet_ref st fr pkt ->
      let lv = Eval.lvalue_of ctx fr st harg in
      emit_one ctx fr lv.lv_path lv.lv_typ st
  (* header validity *)
  | EMember (h, "setValid"), [] ->
      let lv = Eval.lvalue_of ctx fr st h in
      continue_ (write_leaf (lv.lv_path ^ ".$valid") (Expr.tru ctx.ectx) st)
  | EMember (h, "setInvalid"), [] ->
      let lv = Eval.lvalue_of ctx fr st h in
      continue_ (write_leaf (lv.lv_path ^ ".$valid") (Expr.fls ctx.ectx) st)
  (* header stacks *)
  | EMember (h, "push_front"), [ Ast.EInt { iv; _ } ] -> continue_ (stack_shift ctx fr st h iv)
  | EMember (h, "pop_front"), [ Ast.EInt { iv; _ } ] -> continue_ (stack_shift ctx fr st h (-iv))
  (* core parser verify *)
  | EVar "verify", [ cond; err ] ->
      hoist_lookaheads ctx fr st [ cond ] (fun st exprs ->
          let cond = List.hd exprs in
          let st, v = Eval.eval ctx fr st cond in
          let err_name =
            match err with
            | Ast.EMember (Ast.EVar "error", n) -> n
            | _ -> "ParserInvalidArgument"
          in
          if Expr.is_true v then continue_ st
          else if Expr.is_false v then ctx.reject_hook ctx fr err_name st
          else
            { br_cond = Some v; br_state = st; br_label = "verify-ok" }
            :: List.map
                 (fun b -> { b with br_cond = Some (Expr.band (Expr.bnot v) (Option.value b.br_cond ~default:(Expr.tru ctx.ectx))) })
                 (ctx.reject_hook ctx fr err_name st))
  (* table application as a statement *)
  | EMember (EVar t, "apply"), [] -> (
      match find_table fr t with
      | Some tbl -> apply_table ctx fr st tbl ~after:[]
      | None -> dispatch_extern ctx fr st f args)
  (* direct action invocation *)
  | EVar name, _ when find_action ctx fr name <> None ->
      let decl = Option.get (find_action ctx fr name) in
      let st, vals =
        List.fold_left2
          (fun (st, acc) (p : Ast.param) arg ->
            let w = Typing.width_of ctx.tctx p.par_typ in
            let st, v = Eval.eval ~hint:w ctx fr st arg in
            (st, (p, Expr.zext v w) :: acc))
          (st, []) decl.act_params args
      in
      continue_ (invoke_action ctx fr decl (List.rev vals) st)
  | _ -> dispatch_extern ctx fr st f args

and is_packet_ref st fr (e : Ast.expr) =
  match e with
  | Ast.EVar n -> resolve_var st fr n = None
  | _ -> false

and stack_shift ctx fr st (h : Ast.expr) (k : int) : state =
  let lv = Eval.lvalue_of ctx fr st h in
  match lv.lv_typ with
  | Ast.TStack (hn, n) ->
      let read_elem i = Eval.read_tree ctx st (Ast.TName hn) (Printf.sprintf "%s[%d]" lv.lv_path i) in
      let read_valid i = read_leaf st (Printf.sprintf "%s[%d].$valid" lv.lv_path i) in
      let values = List.init n read_elem and valids = List.init n read_valid in
      let st = ref st in
      for i = 0 to n - 1 do
        let src = i - k in
        let path = Printf.sprintf "%s[%d]" lv.lv_path i in
        if src >= 0 && src < n then begin
          st := Eval.write_tree ctx !st (Ast.TName hn) path (List.nth values src);
          st := write_leaf (path ^ ".$valid") (List.nth valids src) !st
        end
        else begin
          st := write_leaf (path ^ ".$valid") (Expr.fls ctx.ectx) !st
        end
      done;
      (* adjust the next cursor, clamped to the stack bounds *)
      let nextp = lv.lv_path ^ ".$next" in
      let cur =
        match Expr.is_const (read_leaf !st nextp) with
        | Some b -> Bits.to_int b
        | None -> 0
      in
      write_leaf nextp (Expr.of_int ctx.ectx ~width:32 (max 0 (min n (cur + k)))) !st
  | _ -> fail "push_front/pop_front on non-stack"

and dispatch_extern ctx fr st (f : Ast.expr) (args : Ast.expr list) : branch list =
  let name =
    match f with
    | Ast.EVar n -> n
    | Ast.EMember (Ast.EVar obj, m) -> obj ^ "." ^ m
    | _ -> fail "unsupported call target %s" (Pretty.expr_to_string f)
  in
  match ctx.extern_hook ctx name args fr st with
  | RVal (st, _) -> continue_ st
  | RUnit st -> continue_ st
  | RBranch bs -> bs

(* ------------------------------------------------------------------ *)
(* Parser states *)

let rec exec_parser_state ctx (fr : frame) st (name : string) : branch list =
  let pd = match fr.fr_parser with Some p -> p | None -> fail "parser state outside parser" in
  let visits = Option.value (Env.find_opt name st.state_visits) ~default:0 in
  if visits >= ctx.opts.unroll_bound then
    (* unrolling bound reached: abandon this path (the paper unrolls
       parser loops up to a bound, §4) *)
    []
  else begin
    let st = { st with state_visits = Env.add name (visits + 1) st.state_visits } in
    match List.find_opt (fun s -> s.Ast.st_name = name) pd.p_states with
    | None -> fail "unknown parser state %s" name
    | Some decl ->
        let st = note ("state " ^ name) st in
        let trans_op = WOp ("transition:" ^ name, fun ctx st -> exec_transition ctx fr st decl.st_trans) in
        let st = push_work [ trans_op ] st in
        continue_ (push_stmts fr decl.st_stmts st)
  end

and exec_transition ctx (fr : frame) st (tr : Ast.transition) : branch list =
  match tr with
  | TrDirect "accept" -> continue_ (note "accept" st)
  | TrDirect "reject" -> ctx.reject_hook ctx fr "NoError" st
  | TrDirect next -> continue_ (push_work [ WParserState (fr, next) ] st)
  | TrSelect (keys, cases) ->
      hoist_lookaheads ctx fr st keys (fun st keys ->
          let st, keyvals =
            List.fold_left
              (fun (st, acc) k ->
                let st, v = Eval.eval ctx fr st k in
                (st, v :: acc))
              (st, []) keys
          in
          let keyvals = List.rev keyvals in
          let tainted = List.exists Expr.tainted keyvals in
          (* a select case whose pattern is a parser value set: the hit
             needs a synthesized control-plane member; the fall-through
             corresponds to an empty set, which adds no constraint *)
          let value_set_of (c : Ast.select_case) =
            match c.sel_keys with
            | [ Ast.EVar n ] -> (
                match resolve_var st fr n with
                | Some (path, Ast.TSpec ("value_set", [ elem ])) -> Some (n, path, elem)
                | _ -> None)
            | _ -> None
          in
          let case_cond st (c : Ast.select_case) =
            if List.length c.sel_keys <> List.length keyvals then
              fail "select pattern arity mismatch";
            List.fold_left2
              (fun (st, acc) keyv pat ->
                let st, m = Tables.match_pattern ctx fr st keyv pat in
                (st, Expr.band acc m))
              (st, Expr.tru ctx.ectx) keyvals c.sel_keys
          in
          let _, branches, miss =
            List.fold_left
              (fun (i, acc, misses) (c : Ast.select_case) ->
                match value_set_of c with
                | Some (vsname, _path, elem) ->
                    let w = Typing.width_of ctx.tctx elem in
                    let keyv = Expr.zext (List.hd keyvals) w in
                    let member = fresh_var ctx ("$vs_" ^ vsname) w in
                    let cond = Expr.band (Expr.eq keyv member) (Expr.conj ctx.ectx misses) in
                    let entry =
                      {
                        se_table = vsname;
                        se_keys = [ ("member", SkExact member) ];
                        se_action = "__vs_member__";
                        se_args = [];
                        se_priority = None;
                      }
                    in
                    let st' =
                      { st with
                        ctrl_taint = st.ctrl_taint || tainted;
                        entries = entry :: st.entries }
                    in
                    let b =
                      match c.sel_next with
                      | "accept" ->
                          [ { br_cond = Some cond; br_state = st'; br_label = "vs:accept" } ]
                      | "reject" ->
                          List.map
                            (fun b ->
                              { b with br_cond = Some (Expr.band cond (Option.value b.br_cond ~default:(Expr.tru ctx.ectx))) })
                            (ctx.reject_hook ctx fr "NoError" st')
                      | next ->
                          [
                            {
                              br_cond = Some cond;
                              br_state = push_work [ WParserState (fr, next) ] st';
                              br_label = "vs:" ^ next;
                            };
                          ]
                    in
                    (* fall-through: the value set is empty in those
                       tests, so no negated constraint is added *)
                    (i + 1, b @ acc, misses)
                | None ->
                let st, m = case_cond st c in
                let cond = Expr.band m (Expr.conj ctx.ectx misses) in
                let st' = { st with ctrl_taint = st.ctrl_taint || tainted } in
                let b =
                  match c.sel_next with
                  | "accept" ->
                      [ { br_cond = Some cond; br_state = st'; br_label = "select:accept" } ]
                  | "reject" ->
                      List.map
                        (fun b ->
                          { b with br_cond = Some (Expr.band cond (Option.value b.br_cond ~default:(Expr.tru ctx.ectx))) })
                        (ctx.reject_hook ctx fr "NoError" st')
                  | next ->
                      [
                        {
                          br_cond = Some cond;
                          br_state = push_work [ WParserState (fr, next) ] st';
                          br_label = "select:" ^ next;
                        };
                      ]
                in
                (i + 1, b @ acc, Expr.bnot m :: misses))
              (0, [], []) cases
          in
          (* no case matched: NoMatch error *)
          let miss_cond = Expr.conj ctx.ectx miss in
          let miss_branches =
            if Expr.is_false miss_cond then []
            else
              List.map
                (fun b ->
                  { b with br_cond = Some (Expr.band miss_cond (Option.value b.br_cond ~default:(Expr.tru ctx.ectx))) })
                (ctx.reject_hook ctx fr "NoMatch" { st with ctrl_taint = st.ctrl_taint || tainted })
          in
          List.rev branches @ miss_branches)

(* ------------------------------------------------------------------ *)
(* Top-level step *)

let step ctx (st : state) : branch list option =
  match st.work with
  | [] -> None
  | w :: rest ->
      let st = { st with work = rest } in
      let branches =
        match w with
        | WStmt (fr, s) -> exec_stmt ctx fr st s
        | WParserState (fr, name) -> exec_parser_state ctx fr st name
        | WOp (_, f) -> f ctx st
        | WExitFrame _ -> continue_ st
      in
      Some branches
