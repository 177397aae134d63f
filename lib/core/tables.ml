(* Symbolic match-action table application.

   Each table application forks the path (§3, example 1): one branch
   per possible control-plane outcome.  For a table without constant
   entries P4Testgen creates a single synthesized entry per action
   (§6, "Interacting with the control plane"), plus a miss branch with
   an empty table.  For [const entries] tables the branches are the
   declared entries in priority order plus the miss branch.

   Taint heuristics (§5.3): a tainted key prevents synthesizing an
   entry that is guaranteed to match — unless every tainted key is a
   ternary/optional key, in which case a wildcard entry removes the
   nondeterminism. *)

module Expr = Smt.Expr
module Bits = Bitv.Bits
open P4
open Runtime

type applied = {
  ap_action : string;
  ap_args : (Ast.param * Expr.t) list;  (** action data, by declared parameter *)
  ap_hit : bool;
  ap_cond : Expr.t option;
  ap_state : state;
  ap_label : string;
}

let key_name (k : Ast.table_key) =
  match Ast.find_anno "name" k.tk_annos with
  | Some a -> ( match Ast.anno_string a with Some s -> s | None -> Ast.lvalue_path k.tk_expr)
  | None -> ( try Ast.lvalue_path k.tk_expr with Invalid_argument _ -> "key")

let eval_keys ctx fr st (tbl : Ast.table) =
  List.fold_left
    (fun (st, acc) (k : Ast.table_key) ->
      let st, v = Eval.eval ctx fr st k.tk_expr in
      (st, (key_name k, k.tk_kind, v) :: acc))
    (st, []) tbl.tbl_keys
  |> fun (st, acc) -> (st, List.rev acc)

(* --------------------------------------------------------------- *)
(* P4-constraints (@entry_restriction) support: restrict synthesized
   entry key variables (§6.1.1). *)

let compile_constraint ctx (keys : (string * string * Expr.t) list)
    (entry_vars : (string * Expr.t) list) (src : string) : Expr.t option =
  ignore (keys : (string * string * Expr.t) list);
  match P4.Parser.parse_expr_string src with
  | exception _ -> None
  | ast ->
      let rec comp (e : Ast.expr) : Expr.t option =
        match e with
        | EBool b -> Some (Expr.of_bool ctx.ectx b)
        | EVar n -> List.assoc_opt n entry_vars
        | EMember _ -> List.assoc_opt (Ast.lvalue_path e) entry_vars
        | EInt { iv; width; _ } ->
            let w = Option.value width ~default:32 in
            Some (Expr.of_int ctx.ectx ~width:w iv)
        | EUnop (LNot, a) -> Option.map Expr.bnot (comp a)
        | EBinop (op, a, b) -> (
            match (comp a, comp b) with
            | Some va, Some vb -> (
                let va, vb =
                  let wa = Expr.width va and wb = Expr.width vb in
                  if wa = wb then (va, vb)
                  else if wa < wb then (Expr.zext va wb, vb)
                  else (va, Expr.zext vb wa)
                in
                match op with
                | Eq -> Some (Expr.eq va vb)
                | Neq -> Some (Expr.neq va vb)
                | Lt -> Some (Expr.ult va vb)
                | Le -> Some (Expr.ule va vb)
                | Gt -> Some (Expr.ugt va vb)
                | Ge -> Some (Expr.uge va vb)
                | LAnd -> Some (Expr.band va vb)
                | LOr -> Some (Expr.bor va vb)
                | BAnd -> Some (Expr.logand va vb)
                | BOr -> Some (Expr.logor va vb)
                | BXor -> Some (Expr.logxor va vb)
                | _ -> None)
            | _ -> None)
        | ETernary (c, t, f) -> (
            match (comp c, comp t, comp f) with
            | Some vc, Some vt, Some vf -> Some (Expr.ite vc vt vf)
            | _ -> None)
        | _ -> None
      in
      comp ast

let entry_restriction ctx (tbl : Ast.table) keys entry_vars =
  if not ctx.opts.apply_constraints then None
  else
    match Ast.find_anno "entry_restriction" tbl.tbl_annos with
    | Some a -> (
        match Ast.anno_string a with
        | Some src -> compile_constraint ctx keys entry_vars src
        | None -> None)
    | None -> None

(* --------------------------------------------------------------- *)
(* Action lookup *)

let noaction : Ast.action_decl =
  { act_name = "NoAction"; act_params = []; act_body = []; act_annos = [] }

let action_decl ctx fr name =
  if name = "NoAction" then noaction
  else
    match find_action ctx fr name with
    | Some a -> a
    | None -> fail "unknown action %s" name

(* --------------------------------------------------------------- *)
(* Constant-entry matching *)

let rec match_pattern ctx fr st (keyv : Expr.t) (pat : Ast.expr) : state * Expr.t =
  let w = Expr.width keyv in
  match pat with
  | EDontCare | EDefault -> (st, Expr.tru ctx.ectx)
  | EMask (v, m) ->
      let st, vv = Eval.eval ~hint:w ctx fr st v in
      let st, vm = Eval.eval ~hint:w ctx fr st m in
      let vv = Expr.zext vv w and vm = Expr.zext vm w in
      (st, Expr.eq (Expr.logand keyv vm) (Expr.logand vv vm))
  | ERange (lo, hi) ->
      let st, vlo = Eval.eval ~hint:w ctx fr st lo in
      let st, vhi = Eval.eval ~hint:w ctx fr st hi in
      (st, Expr.band (Expr.ule (Expr.zext vlo w) keyv) (Expr.ule keyv (Expr.zext vhi w)))
  | EList [ p ] -> match_pattern ctx fr st keyv p
  | _ ->
      let st, v = Eval.eval ~hint:w ctx fr st pat in
      (st, Expr.eq keyv (Expr.zext v w))

let match_entry ctx fr st keys (e : Ast.table_entry) : state * Expr.t =
  if List.length keys <> List.length e.te_keys then
    fail "entry key arity mismatch in table";
  List.fold_left2
    (fun (st, acc) (_, _, keyv) pat ->
      let st, m = match_pattern ctx fr st keyv pat in
      (st, Expr.band acc m))
    (st, Expr.tru ctx.ectx) keys e.te_keys

(* order constant entries by priority (lower value = higher priority),
   then source order — the v1model "priority" annotation semantics *)
let ordered_entries (tbl : Ast.table) =
  let indexed = List.mapi (fun i e -> (i, e)) tbl.tbl_entries in
  List.stable_sort
    (fun (i, a) (j, b) ->
      match (a.Ast.te_priority, b.Ast.te_priority) with
      | Some x, Some y -> if x <> y then compare x y else compare i j
      | Some _, None -> -1
      | None, Some _ -> 1
      | None, None -> compare i j)
    indexed
  |> List.map snd

(* --------------------------------------------------------------- *)
(* Entry synthesis *)

type synth = {
  sy_cond : Expr.t;
  sy_keys : (string * sym_key) list;
  sy_vars : (string * Expr.t) list;  (** key name -> entry variable *)
  sy_ok : bool;  (** false when a tainted key prevents a guaranteed match *)
}

let synthesize_match ctx keys : synth =
  let ok = ref true in
  let conds = ref [] in
  let sks = ref [] in
  let vars = ref [] in
  List.iter
    (fun (name, kind, keyv) ->
      let w = Expr.width keyv in
      let tainted = Expr.tainted keyv in
      match kind with
      | "ternary" | "optional" when tainted ->
          (* wildcard entry: matches regardless of the tainted key *)
          let sk =
            if kind = "ternary" then
              SkTernary (Expr.zero ctx.ectx w, Expr.zero ctx.ectx w)
            else SkOptional None
          in
          sks := (name, sk) :: !sks
      | _ when tainted -> ok := false
      | "exact" ->
          let kv = fresh_var ctx ("$key_" ^ name) w in
          conds := Expr.eq keyv kv :: !conds;
          vars := (name, kv) :: !vars;
          sks := (name, SkExact kv) :: !sks
      | "ternary" ->
          let kv = fresh_var ctx ("$key_" ^ name) w in
          conds := Expr.eq keyv kv :: !conds;
          vars := (name, kv) :: !vars;
          sks := (name, SkTernary (kv, Expr.ones ctx.ectx w)) :: !sks
      | "lpm" ->
          let kv = fresh_var ctx ("$key_" ^ name) w in
          conds := Expr.eq keyv kv :: !conds;
          vars := (name, kv) :: !vars;
          sks := (name, SkLpm (kv, w)) :: !sks
      | "range" ->
          let kv = fresh_var ctx ("$key_" ^ name) w in
          conds := Expr.eq keyv kv :: !conds;
          vars := (name, kv) :: !vars;
          sks := (name, SkRange (kv, kv)) :: !sks
      | "optional" ->
          let kv = fresh_var ctx ("$key_" ^ name) w in
          conds := Expr.eq keyv kv :: !conds;
          vars := (name, kv) :: !vars;
          sks := (name, SkOptional (Some kv)) :: !sks
      | kind -> fail "unsupported match kind %s" kind)
    keys;
  {
    sy_cond = Expr.conj ctx.ectx (List.rev !conds);
    sy_keys = List.rev !sks;
    sy_vars = List.rev !vars;
    sy_ok = !ok;
  }

(* --------------------------------------------------------------- *)
(* Matching a key against an already-synthesized entry (an earlier
   application of the same table in this test — the previous packet of
   a sequence, or a recirculation) *)

let match_sym_key ctx (keyv : Expr.t) (sk : sym_key) : Expr.t =
  let w = Expr.width keyv in
  match sk with
  | SkExact v -> Expr.eq keyv (Expr.zext v w)
  | SkTernary (v, m) ->
      let v = Expr.zext v w and m = Expr.zext m w in
      Expr.eq (Expr.logand keyv m) (Expr.logand v m)
  | SkLpm (v, len) ->
      if len >= w then Expr.eq keyv (Expr.zext v w)
      else if len <= 0 then Expr.tru ctx.ectx
      else
        let shift = Expr.of_int ctx.ectx ~width:w (w - len) in
        Expr.eq (Expr.lshr keyv shift) (Expr.lshr (Expr.zext v w) shift)
  | SkRange (lo, hi) ->
      Expr.band (Expr.ule (Expr.zext lo w) keyv) (Expr.ule keyv (Expr.zext hi w))
  | SkOptional None -> Expr.tru ctx.ectx
  | SkOptional (Some v) -> Expr.eq keyv (Expr.zext v w)

(* --------------------------------------------------------------- *)

let default_of ctx fr st (tbl : Ast.table) =
  match tbl.tbl_default with
  | Some (name, args) ->
      let decl = action_decl ctx fr name in
      let st, vals =
        List.fold_left2
          (fun (st, acc) (p : Ast.param) arg ->
            let w = Typing.width_of ctx.tctx p.par_typ in
            let st, v = Eval.eval ~hint:w ctx fr st arg in
            (st, (p, Expr.zext v w) :: acc))
          (st, []) decl.act_params args
      in
      (st, name, List.rev vals)
  | None -> (st, "NoAction", [])

let fresh_action_args ctx fr (name : string) decl =
  ignore fr;
  List.map
    (fun (p : Ast.param) ->
      let w = Typing.width_of ctx.tctx p.par_typ in
      (p, fresh_var ctx (Printf.sprintf "$arg_%s_%s" name p.par_name) w))
    decl.Ast.act_params

(* Apply a table: returns every control-plane branch. *)
let apply ctx fr st (tbl : Ast.table) : applied list =
  let st, keys = eval_keys ctx fr st tbl in
  let st0 = note ("apply " ^ tbl.tbl_name) st in
  if tbl.tbl_entries <> [] then begin
    (* immutable table with constant entries; a tainted key makes the
       match outcome unpredictable — the branches are explored but
       marked so their tests are discarded (§5.3) *)
    let keys_tainted = List.exists (fun (_, _, v) -> Expr.tainted v) keys in
    let st0 = if keys_tainted then { st0 with ctrl_taint = true } else st0 in
    let entries = ordered_entries tbl in
    let _, branches, miss_conds =
      List.fold_left
        (fun (i, acc, misses) entry ->
          let st, m = match_entry ctx fr st0 keys entry in
          let cond = Expr.band m (Expr.conj ctx.ectx misses) in
          let decl = action_decl ctx fr entry.Ast.te_action in
          let st, args =
            List.fold_left2
              (fun (st, acc) (p : Ast.param) arg ->
                let w = Typing.width_of ctx.tctx p.par_typ in
                let st, v = Eval.eval ~hint:w ctx fr st arg in
                (st, (p, Expr.zext v w) :: acc))
              (st, []) decl.act_params entry.Ast.te_args
          in
          let b =
            {
              ap_action = entry.Ast.te_action;
              ap_args = List.rev args;
              ap_hit = true;
              ap_cond = Some cond;
              ap_state = st;
              ap_label = Printf.sprintf "%s:entry%d" tbl.tbl_name i;
            }
          in
          (i + 1, b :: acc, Expr.bnot m :: misses))
        (0, [], []) entries
    in
    let st, dname, dargs = default_of ctx fr st0 tbl in
    let miss =
      {
        ap_action = dname;
        ap_args = dargs;
        ap_hit = false;
        ap_cond = Some (Expr.conj ctx.ectx miss_conds);
        ap_state = st;
        ap_label = tbl.tbl_name ^ ":miss";
      }
    in
    List.rev (miss :: branches)
  end
  else begin
    (* programmable table: one synthesized entry per action + miss.

       The control plane is written ONCE for the whole test, so a
       later application of the same table — the next packet of a
       sequence, or a recirculated packet — sees the entries earlier
       applications synthesized.  First match wins on a real switch:
       the later application must therefore either *re-hit* one of
       those entries (replaying its stored action and data) or take a
       branch whose key provably matches none of them. *)
    let prev =
      List.rev
        (List.filter (fun (e : sym_entry) -> e.se_table = tbl.tbl_name) st0.entries)
    in
    let match_prev (e : sym_entry) : Expr.t =
      Expr.conj ctx.ectx
        (List.map2
           (fun (_, _, keyv) (_, sk) -> match_sym_key ctx keyv sk)
           keys e.se_keys)
    in
    let not_matching es = List.map (fun e -> Expr.bnot (match_prev e)) es in
    (* whether a tainted key matches an installed entry is unknown, so
       a re-hit or miss decided over one is unpredictable, like a
       tainted key on a constant-entry table *)
    let taint_if_tainted cond st =
      if Expr.tainted cond then { st with ctrl_taint = true } else st
    in
    let rehit_branches =
      List.concat
        (List.mapi
           (fun i (e : sym_entry) ->
             match action_decl ctx fr e.se_action with
             | exception _ -> []
             | decl ->
                 let args =
                   List.map
                     (fun (p : Ast.param) ->
                       match List.assoc_opt p.par_name e.se_args with
                       | Some v -> (p, v)
                       | None ->
                           ( p,
                             fresh_var ctx
                               (Printf.sprintf "$arg_%s_%s" e.se_action p.par_name)
                               (Typing.width_of ctx.tctx p.par_typ) ))
                     decl.act_params
                 in
                 let earlier = List.filteri (fun j _ -> j < i) prev in
                 let cond =
                   Expr.conj ctx.ectx (match_prev e :: not_matching earlier)
                 in
                 [
                   {
                     ap_action = e.se_action;
                     ap_args = args;
                     ap_hit = true;
                     ap_cond = Some cond;
                     ap_state = taint_if_tainted cond st0;
                     ap_label =
                       Printf.sprintf "%s:rehit%d:%s" tbl.tbl_name i e.se_action;
                   };
                 ])
           prev)
    in
    (* a fresh synthesized entry (and the miss branch) must dodge every
       earlier entry of this table, and must also not match the key of
       any PAST application that took the miss branch — the entry is
       installed before the first packet, so it would retroactively
       turn that miss into a hit.  With no earlier applications both
       guards vanish and this is the historical shape, bit for bit.
       A guard that reads a tainted key (an earlier packet's key from
       an invalid header, say) may fail on the device, so the entry
       may match where the branch promises it does not: the branch is
       unpredictable, like a tainted re-hit. *)
    let past_misses =
      List.filter_map
        (fun (tname, mkeys) -> if tname = tbl.tbl_name then Some mkeys else None)
        st0.tbl_misses
    in
    let miss_guards (sy_keys : (string * sym_key) list) =
      List.map
        (fun mkeys ->
          Expr.bnot
            (Expr.conj ctx.ectx
               (List.map2 (fun mk (_, sk) -> match_sym_key ctx mk sk) mkeys sy_keys)))
        past_misses
    in
    let dodge sy_keys cond =
      match not_matching prev @ miss_guards sy_keys with
      | [] -> (cond, false)
      | guards ->
          (Expr.conj ctx.ectx (cond :: guards), List.exists Expr.tainted guards)
    in
    let synth = synthesize_match ctx keys in
    let restriction = entry_restriction ctx tbl keys synth.sy_vars in
    let hit_branches =
      if not synth.sy_ok then []
      else
        List.filter_map
          (fun (aname, annos) ->
            if Ast.has_anno "defaultonly" annos then None
            else begin
              let decl = action_decl ctx fr aname in
              let args = fresh_action_args ctx fr tbl.tbl_name decl in
              let entry =
                {
                  se_table = tbl.tbl_name;
                  se_keys = synth.sy_keys;
                  se_action = aname;
                  se_args = List.map (fun ((p : Ast.param), v) -> (p.par_name, v)) args;
                  se_priority = None;
                }
              in
              let cond, guard_tainted =
                dodge synth.sy_keys
                  (match restriction with
                  | Some r -> Expr.band synth.sy_cond r
                  | None -> synth.sy_cond)
              in
              Some
                {
                  ap_action = aname;
                  ap_args = args;
                  ap_hit = true;
                  ap_cond = Some cond;
                  ap_state =
                    {
                      st0 with
                      entries = entry :: st0.entries;
                      ctrl_taint = st0.ctrl_taint || guard_tainted;
                    };
                  ap_label = Printf.sprintf "%s:hit:%s" tbl.tbl_name aname;
                }
            end)
          tbl.tbl_actions
    in
    let st, dname, dargs = default_of ctx fr st0 tbl in
    (* record the miss: entries synthesized by later applications must
       not match this application's key *)
    let miss_st =
      {
        st with
        tbl_misses =
          (tbl.tbl_name, List.map (fun (_, _, v) -> v) keys) :: st.tbl_misses;
      }
    in
    let miss_cond =
      if prev = [] then None (* empty table: miss unconditionally *)
      else Some (Expr.conj ctx.ectx (not_matching prev))
    in
    let miss =
      {
        ap_action = dname;
        ap_args = dargs;
        ap_hit = false;
        ap_cond = miss_cond;
        ap_state =
          (match miss_cond with
          | Some c -> taint_if_tainted c miss_st
          | None -> miss_st);
        ap_label = tbl.tbl_name ^ ":miss";
      }
    in
    rehit_branches @ hit_branches @ [ miss ]
  end
