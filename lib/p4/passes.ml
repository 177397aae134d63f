(* Mid-end passes.  P4Testgen runs the input through P4C's
   simplifying transformations before symbolic execution (§4, phase 1);
   these are our equivalents:

   - [fold]: constant propagation and folding, which also performs
     dead-branch elimination ([if (false) ...] disappears), so that
     statement coverage is computed "after dead-code elimination" (§7);
   - [elim_stack_indices]: replaces run-time header-stack indices with
     conditionals over constant indices;
   - [number_statements]: gives every executable statement a unique id
     (stored in its [pos.line]) used by coverage tracking. *)

open Ast

(* ------------------------------------------------------------------ *)
(* Constant folding *)

type fold_env = (string * int) list

let rec eval_const (env : fold_env) (e : expr) : int option =
  match e with
  | EInt { iv; _ } -> Some iv
  | EBool b -> Some (if b then 1 else 0)
  | EVar n -> List.assoc_opt n env
  | EUnop (Neg, a) -> Option.map (fun v -> -v) (eval_const env a)
  | EUnop (BitNot, a) -> Option.map lnot (eval_const env a)
  | EUnop (LNot, a) -> Option.map (fun v -> if v = 0 then 1 else 0) (eval_const env a)
  | EBinop (op, a, b) -> (
      match (eval_const env a, eval_const env b) with
      | Some x, Some y -> (
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div -> if y = 0 then None else Some (x / y)
          | Mod -> if y = 0 then None else Some (x mod y)
          | Shl -> Some (x lsl y)
          | Shr -> Some (x lsr y)
          | BAnd -> Some (x land y)
          | BOr -> Some (x lor y)
          | BXor -> Some (x lxor y)
          | LAnd -> Some (if x <> 0 && y <> 0 then 1 else 0)
          | LOr -> Some (if x <> 0 || y <> 0 then 1 else 0)
          | Eq -> Some (if x = y then 1 else 0)
          | Neq -> Some (if x <> y then 1 else 0)
          | Lt -> Some (if x < y then 1 else 0)
          | Le -> Some (if x <= y then 1 else 0)
          | Gt -> Some (if x > y then 1 else 0)
          | Ge -> Some (if x >= y then 1 else 0)
          | AddSat | SubSat | Concat -> None)
      | _ -> None)
  | ETernary (c, t, f) -> (
      match eval_const env c with
      | Some 0 -> eval_const env f
      | Some _ -> eval_const env t
      | None -> None)
  | ECast (_, a) -> eval_const env a
  | _ -> None

let rec fold_expr env (e : expr) : expr =
  match e with
  | EVar n -> (
      match List.assoc_opt n env with
      | Some v -> EInt { value = None; iv = v; width = None; signed = false }
      | None -> e)
  | EBinop (op, a, b) -> (
      let a = fold_expr env a and b = fold_expr env b in
      let folded = eval_const env (EBinop (op, a, b)) in
      match folded with
      | Some v when v >= 0 ->
          let width =
            match (a, b) with
            | EInt { width = Some w; _ }, _ | _, EInt { width = Some w; _ } -> Some w
            | _ -> None
          in
          let width = match op with Eq | Neq | Lt | Le | Gt | Ge | LAnd | LOr -> None | _ -> width in
          EInt { value = Option.map (fun w -> Bitv.Bits.of_int ~width:w v) width; iv = v; width; signed = false }
      | _ -> EBinop (op, a, b))
  | EUnop (op, a) -> (
      let a = fold_expr env a in
      match eval_const env (EUnop (op, a)) with
      | Some v when v >= 0 -> EInt { value = None; iv = v; width = None; signed = false }
      | _ -> EUnop (op, a))
  | ETernary (c, t, f) -> (
      let c = fold_expr env c in
      match eval_const env c with
      | Some 0 -> fold_expr env f
      | Some _ -> fold_expr env t
      | None -> ETernary (c, fold_expr env t, fold_expr env f))
  | EMember (a, f) -> EMember (fold_expr env a, f)
  | EIndex (a, i) -> EIndex (fold_expr env a, fold_expr env i)
  | ESlice (a, hi, lo) -> (
      let a = fold_expr env a in
      match a with
      (* x[h1:l1][h2:l2] reads bits [l1+h2 : l1+l2] of x *)
      | ESlice (b, _, blo) -> ESlice (b, blo + hi, blo + lo)
      | EInt { iv; _ } when iv >= 0 && hi < 62 ->
          let w = hi - lo + 1 in
          let v = (iv asr lo) land ((1 lsl w) - 1) in
          EInt { value = Some (Bitv.Bits.of_int ~width:w v); iv = v; width = Some w; signed = false }
      | EVar _ | EMember _ | EIndex _ -> ESlice (a, hi, lo)
      | _ ->
          (* slice of a compound expression: lower to shift plus
             truncating cast, which evaluates without an l-value *)
          let w = hi - lo + 1 in
          let sh =
            if lo = 0 then a
            else EBinop (Shr, a, EInt { value = None; iv = lo; width = None; signed = false })
          in
          ECast (TBit w, sh))
  | ECast (t, a) -> ECast (t, fold_expr env a)
  | ECall (f, args) -> ECall (fold_expr env f, List.map (fold_expr env) args)
  | EList es -> EList (List.map (fold_expr env) es)
  | EMask (a, b) -> EMask (fold_expr env a, fold_expr env b)
  | ERange (a, b) -> ERange (fold_expr env a, fold_expr env b)
  | EBool _ | EInt _ | EString _ | ETypeArg _ | EDontCare | EDefault -> e

let rec fold_stmt env (s : stmt) : fold_env * stmt =
  match s with
  | SConstDecl (p, t, n, e) -> (
      let e = fold_expr env e in
      match eval_const env e with
      | Some v -> ((n, v) :: env, SConstDecl (p, t, n, e))
      | None -> (env, SConstDecl (p, t, n, e)))
  | SAssign (p, l, r) -> (env, SAssign (p, fold_expr env l, fold_expr env r))
  | SCall (p, f, args) -> (env, SCall (p, fold_expr env f, List.map (fold_expr env) args))
  | SIf (p, c, t, e) -> (
      let c = fold_expr env c in
      match eval_const env c with
      | Some 0 -> (env, SBlock (fold_block env e))
      | Some _ -> (env, SBlock (fold_block env t))
      | None -> (env, SIf (p, c, fold_block env t, fold_block env e)))
  | SSwitch (p, e, cases) ->
      ( env,
        SSwitch
          ( p,
            fold_expr env e,
            List.map
              (fun c -> { c with sw_body = Option.map (fold_block env) c.sw_body })
              cases ) )
  | SVarDecl (p, t, n, init) -> (env, SVarDecl (p, t, n, Option.map (fold_expr env) init))
  | SReturn (p, e) -> (env, SReturn (p, Option.map (fold_expr env) e))
  | SBlock b -> (env, SBlock (fold_block env b))
  | SExit _ | SEmpty -> (env, s)

and fold_block env (b : block) : block =
  let _, stmts =
    List.fold_left
      (fun (env, acc) s ->
        let env, s = fold_stmt env s in
        let keep = match s with SBlock [] | SEmpty -> false | _ -> true in
        (env, if keep then s :: acc else acc))
      (env, []) b
  in
  List.rev stmts

let fold_action env (a : action_decl) = { a with act_body = fold_block env a.act_body }

let fold_table env (t : table) =
  {
    t with
    tbl_keys = List.map (fun k -> { k with tk_expr = fold_expr env k.tk_expr }) t.tbl_keys;
    tbl_entries =
      List.map
        (fun e ->
          { e with te_keys = List.map (fold_expr env) e.te_keys;
                   te_args = List.map (fold_expr env) e.te_args })
        t.tbl_entries;
    tbl_default =
      Option.map (fun (a, args) -> (a, List.map (fold_expr env) args)) t.tbl_default;
  }

let fold_locals env locals =
  List.fold_left
    (fun (env, acc) l ->
      match l with
      | LConst (t, n, e) -> (
          let e = fold_expr env e in
          match eval_const env e with
          | Some v -> ((n, v) :: env, LConst (t, n, e) :: acc)
          | None -> (env, LConst (t, n, e) :: acc))
      | LVar (t, n, init) -> (env, LVar (t, n, Option.map (fold_expr env) init) :: acc)
      | LAction a -> (env, LAction (fold_action env a) :: acc)
      | LTable t -> (env, LTable (fold_table env t) :: acc)
      | LInstantiation (t, args, n) ->
          (env, LInstantiation (t, List.map (fold_expr env) args, n) :: acc))
    (env, []) locals
  |> fun (env, acc) -> (env, List.rev acc)

let fold_state env (s : parser_state) =
  {
    s with
    st_stmts = fold_block env s.st_stmts;
    st_trans =
      (match s.st_trans with
      | TrDirect n -> TrDirect n
      | TrSelect (keys, cases) ->
          TrSelect
            ( List.map (fold_expr env) keys,
              List.map
                (fun c -> { c with sel_keys = List.map (fold_expr env) c.sel_keys })
                cases ));
  }

let fold (prog : program) : program =
  (* collect global consts first *)
  let genv =
    List.filter_map
      (function
        | DConst (_, n, e) -> Option.map (fun v -> (n, v)) (eval_const [] e)
        | DSerEnum (_, _, _) -> None
        | _ -> None)
      prog
  in
  (* serializable enum members fold as name constants too *)
  let genv =
    List.fold_left
      (fun env d ->
        match d with
        | DSerEnum (_, _, ms) ->
            List.fold_left
              (fun env (m, e) ->
                match eval_const env e with Some v -> (m, v) :: env | None -> env)
              env ms
        | _ -> env)
      genv prog
  in
  List.map
    (fun d ->
      match d with
      | DParser (pd, annos) ->
          let env, locals = fold_locals genv pd.p_locals in
          DParser
            ({ pd with p_locals = locals; p_states = List.map (fold_state env) pd.p_states },
             annos)
      | DControl (cd, annos) ->
          let env, locals = fold_locals genv cd.c_locals in
          DControl ({ cd with c_locals = locals; c_body = fold_block env cd.c_body }, annos)
      | DAction a -> DAction (fold_action genv a)
      | d -> d)
    prog

(* ------------------------------------------------------------------ *)
(* Run-time header-stack index elimination *)

let rec find_dynamic_index (e : expr) : (expr * expr) option =
  (* returns (stack base, index expr) for the first non-constant index *)
  match e with
  | EIndex (b, i) -> (
      match i with
      | EInt _ -> find_dynamic_index b
      | _ -> (
          match find_dynamic_index i with
          | Some r -> Some r
          | None -> Some (b, i)))
  | EMember (b, _) | ESlice (b, _, _) | ECast (_, b) | EUnop (_, b) -> find_dynamic_index b
  | EBinop (_, a, b) | EMask (a, b) | ERange (a, b) -> (
      match find_dynamic_index a with Some r -> Some r | None -> find_dynamic_index b)
  | ETernary (a, b, c) -> (
      match find_dynamic_index a with
      | Some r -> Some r
      | None -> (
          match find_dynamic_index b with Some r -> Some r | None -> find_dynamic_index c))
  | ECall (f, args) ->
      List.fold_left
        (fun acc a -> match acc with Some _ -> acc | None -> find_dynamic_index a)
        (find_dynamic_index f) args
  | EList es ->
      List.fold_left
        (fun acc a -> match acc with Some _ -> acc | None -> find_dynamic_index a)
        None es
  | EBool _ | EInt _ | EString _ | EVar _ | ETypeArg _ | EDontCare | EDefault -> None

let rec subst_index ~base ~index ~const (e : expr) : expr =
  let go = subst_index ~base ~index ~const in
  match e with
  | EIndex (b, i) when b = base && i = index -> EIndex (go b, int_lit const)
  | EIndex (b, i) -> EIndex (go b, go i)
  | EMember (b, f) -> EMember (go b, f)
  | ESlice (b, hi, lo) -> ESlice (go b, hi, lo)
  | ECast (t, b) -> ECast (t, go b)
  | EUnop (op, b) -> EUnop (op, go b)
  | EBinop (op, a, b) -> EBinop (op, go a, go b)
  | EMask (a, b) -> EMask (go a, go b)
  | ERange (a, b) -> ERange (go a, go b)
  | ETernary (a, b, c) -> ETernary (go a, go b, go c)
  | ECall (f, args) -> ECall (go f, List.map go args)
  | EList es -> EList (List.map go es)
  | EBool _ | EInt _ | EString _ | EVar _ | ETypeArg _ | EDontCare | EDefault -> e

let stack_size_of ctx scope base =
  match Typing.typ_of_lvalue ctx scope base with
  | Some _ -> (
      (* base itself is the stack l-value; look it up directly *)
      match Typing.typ_of_lvalue ctx scope base with
      | Some (TStack (_, n)) -> Some n
      | _ -> None)
  | None -> None

let rec elim_stmt ctx scope (s : stmt) : stmt =
  let dynamic =
    match s with
    | SAssign (_, l, r) -> (
        match find_dynamic_index l with Some r' -> Some r' | None -> find_dynamic_index r)
    | SCall (_, f, args) ->
        List.fold_left
          (fun acc a -> match acc with Some _ -> acc | None -> find_dynamic_index a)
          (find_dynamic_index f) args
    | _ -> None
  in
  match dynamic with
  | Some (base, index) -> (
      match stack_size_of ctx scope base with
      | Some n ->
          let pos = stmt_pos s in
          let rec chain k =
            if k >= n then SEmpty
            else
              let s' = subst_stmt ~base ~index ~const:k s in
              let s' = elim_stmt ctx scope s' in
              SIf
                ( pos,
                  EBinop (Eq, index, int_lit k),
                  [ s' ],
                  [ chain (k + 1) ] )
          in
          chain 0
      | None -> s)
  | None -> (
      match s with
      | SIf (p, c, t, e) ->
          SIf (p, c, List.map (elim_stmt ctx scope) t, List.map (elim_stmt ctx scope) e)
      | SBlock b -> SBlock (List.map (elim_stmt ctx scope) b)
      | SSwitch (p, e, cases) ->
          SSwitch
            ( p,
              e,
              List.map
                (fun c ->
                  { c with sw_body = Option.map (List.map (elim_stmt ctx scope)) c.sw_body })
                cases )
      | s -> s)

and subst_stmt ~base ~index ~const (s : stmt) : stmt =
  match s with
  | SAssign (p, l, r) ->
      SAssign (p, subst_index ~base ~index ~const l, subst_index ~base ~index ~const r)
  | SCall (p, f, args) ->
      SCall
        (p, subst_index ~base ~index ~const f, List.map (subst_index ~base ~index ~const) args)
  | s -> s

let scope_of_params params =
  List.map (fun p -> (p.par_name, p.par_typ)) params

let scope_of_locals locals =
  List.filter_map (function LVar (t, n, _) -> Some (n, t) | _ -> None) locals

let elim_stack_indices ctx (prog : program) : program =
  List.map
    (fun d ->
      match d with
      | DParser (pd, annos) ->
          let scope = scope_of_params pd.p_params @ scope_of_locals pd.p_locals in
          DParser
            ( {
                pd with
                p_states =
                  List.map
                    (fun st -> { st with st_stmts = List.map (elim_stmt ctx scope) st.st_stmts })
                    pd.p_states;
              },
              annos )
      | DControl (cd, annos) ->
          let scope = scope_of_params cd.c_params @ scope_of_locals cd.c_locals in
          let elim_local = function
            | LAction a -> LAction { a with act_body = List.map (elim_stmt ctx scope) a.act_body }
            | l -> l
          in
          DControl
            ( {
                cd with
                c_locals = List.map elim_local cd.c_locals;
                c_body = List.map (elim_stmt ctx scope) cd.c_body;
              },
              annos )
      | d -> d)
    prog

(* ------------------------------------------------------------------ *)
(* Statement numbering for coverage *)

let number_statements (prog : program) : program * int =
  let counter = ref 0 in
  let next () =
    incr counter;
    { line = !counter; col = 0 }
  in
  let rec num_stmt s =
    match s with
    | SAssign (_, l, r) -> SAssign (next (), l, r)
    | SCall (_, f, args) -> SCall (next (), f, args)
    | SExit _ -> SExit (next ())
    | SReturn (_, e) -> SReturn (next (), e)
    | SIf (_, c, t, e) ->
        (* branches are numbered, the if itself is not a coverable leaf *)
        SIf (no_pos, c, List.map num_stmt t, List.map num_stmt e)
    | SSwitch (_, e, cases) ->
        SSwitch
          ( no_pos,
            e,
            List.map (fun c -> { c with sw_body = Option.map (List.map num_stmt) c.sw_body }) cases
          )
    | SBlock b -> SBlock (List.map num_stmt b)
    | SVarDecl (_, t, n, i) -> SVarDecl (no_pos, t, n, i)
    | SConstDecl (_, t, n, e) -> SConstDecl (no_pos, t, n, e)
    | SEmpty -> SEmpty
  in
  let num_action a = { a with act_body = List.map num_stmt a.act_body } in
  let num_local = function
    | LAction a -> LAction (num_action a)
    | l -> l
  in
  let prog =
    List.map
      (fun d ->
        match d with
        | DParser (pd, annos) ->
            DParser
              ( {
                  pd with
                  p_locals = List.map num_local pd.p_locals;
                  p_states =
                    List.map
                      (fun st -> { st with st_stmts = List.map num_stmt st.st_stmts })
                      pd.p_states;
                },
                annos )
        | DControl (cd, annos) ->
            DControl
              ( {
                  cd with
                  c_locals = List.map num_local cd.c_locals;
                  c_body = List.map num_stmt cd.c_body;
                },
                annos )
        | DAction a -> DAction (num_action a)
        | d -> d)
      prog
  in
  (prog, !counter)

(* ------------------------------------------------------------------ *)
(* Statement shapes

   A canonical, identifier-oblivious description of every numbered
   statement, keyed by the id [number_statements] assigned.  Two
   statements in *different* programs share a shape exactly when they
   are the same construct in the same structural position — constants,
   declaration names, and table/action/state identifiers are erased
   (member field names are kept: they come from a small shared header
   vocabulary and distinguish genuinely different behaviors).  The
   selftest campaign's coverage keys (cov1000) hash these shapes.
   They do not saturate: a shape embeds its whole branch context, so
   every random program mints new ones, and a campaign's distinct
   count grows linearly with its cases (11,364 after 1,395 cases and
   22,791 after 2,845 at seed 7).  cov1000 therefore measures how
   varied the covered statements of a campaign's programs are. *)

let rec expr_shape (e : expr) : string =
  match e with
  | EBool _ -> "b"
  | EInt { width = Some w; _ } -> Printf.sprintf "k%d" w
  | EInt _ -> "k"
  | EString _ -> "s"
  | EVar _ -> "_"
  | EMember (e, f) -> expr_shape e ^ "." ^ f
  | EIndex (e, i) -> expr_shape e ^ "[" ^ expr_shape i ^ "]"
  | ESlice (e, hi, lo) -> Printf.sprintf "%s[%d:%d]" (expr_shape e) hi lo
  | EUnop (op, a) ->
      let o = match op with Neg -> "-" | BitNot -> "~" | LNot -> "!" in
      o ^ expr_shape a
  | EBinop (op, a, b) ->
      let o =
        match op with
        | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
        | AddSat -> "|+|" | SubSat -> "|-|" | Shl -> "<<" | Shr -> ">>"
        | BAnd -> "&" | BOr -> "|" | BXor -> "^" | LAnd -> "&&" | LOr -> "||"
        | Eq -> "==" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">"
        | Ge -> ">=" | Concat -> "++"
      in
      "(" ^ expr_shape a ^ o ^ expr_shape b ^ ")"
  | ETernary (c, t, f) ->
      "(" ^ expr_shape c ^ "?" ^ expr_shape t ^ ":" ^ expr_shape f ^ ")"
  | ECast (t, a) -> Format.asprintf "(%a)%s" Pretty.pp_typ t (expr_shape a)
  | ECall (f, args) ->
      expr_shape f ^ "(" ^ String.concat "," (List.map expr_shape args) ^ ")"
  | ETypeArg t -> Format.asprintf "<%a>" Pretty.pp_typ t
  | EList es -> "{" ^ String.concat "," (List.map expr_shape es) ^ "}"
  | EDontCare -> "_dc"
  | EDefault -> "_def"
  | EMask (a, m) -> expr_shape a ^ "&&&" ^ expr_shape m
  | ERange (a, b) -> expr_shape a ^ ".." ^ expr_shape b

(** [statement_shapes prog] maps every coverable statement id of a
    numbered program (see {!number_statements}) to its canonical
    shape. *)
let statement_shapes (prog : program) : (int * string) list =
  let out = ref [] in
  let emit (p : pos) shape =
    if p.line > 0 then out := (p.line, shape) :: !out
  in
  let rec walk ctx s =
    match s with
    | SAssign (p, l, r) ->
        emit p (ctx ^ ":assign " ^ expr_shape l ^ ":=" ^ expr_shape r)
    | SCall (p, f, args) ->
        emit p
          (ctx ^ ":call " ^ expr_shape f ^ "("
          ^ String.concat "," (List.map expr_shape args)
          ^ ")")
    | SExit p -> emit p (ctx ^ ":exit")
    | SReturn (p, e) ->
        emit p
          (ctx ^ ":return"
          ^ match e with Some e -> " " ^ expr_shape e | None -> "")
    | SIf (_, c, t, e) ->
        let cond = expr_shape c in
        List.iter (walk (ctx ^ "/if(" ^ cond ^ ").t")) t;
        List.iter (walk (ctx ^ "/if(" ^ cond ^ ").e")) e
    | SSwitch (_, _, cases) ->
        List.iteri
          (fun i c ->
            match c.sw_body with
            | Some b -> List.iter (walk (Printf.sprintf "%s/switch.%d" ctx i)) b
            | None -> ())
          cases
    | SBlock b -> List.iter (walk ctx) b
    | SVarDecl _ | SConstDecl _ | SEmpty -> ()
  in
  let walk_action ctx a = List.iter (walk (ctx ^ "/action")) a.act_body in
  let walk_local ctx = function
    | LAction a -> walk_action ctx a
    | LVar _ | LConst _ | LTable _ | LInstantiation _ -> ()
  in
  List.iter
    (fun d ->
      match d with
      | DParser (pd, _) ->
          List.iter (walk_local "parser") pd.p_locals;
          List.iter
            (fun st -> List.iter (walk "parser/state") st.st_stmts)
            pd.p_states
      | DControl (cd, _) ->
          List.iter (walk_local "control") cd.c_locals;
          List.iter (walk "control") cd.c_body
      | DAction a -> walk_action "top" a
      | _ -> ())
    prog;
  List.rev !out

(** The standard pipeline applied before symbolic execution. *)
let prepare (prog : program) : program * Typing.ctx * int =
  let prog = fold prog in
  let ctx = Typing.build prog in
  let prog = elim_stack_indices ctx prog in
  let prog, nstmts = number_statements prog in
  (prog, ctx, nstmts)
