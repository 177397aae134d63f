(* Type-preserving AST mutators for the coverage-guided corpus.

   The campaign's mutate-don't-regenerate loop (ROADMAP item 3,
   Fuzzilli-style; Gauntlet applies the same idea to P4 compilers):
   instead of drawing every case from scratch, corpus members are
   perturbed — constants and entry priorities jittered, match kinds
   flipped, pipelines and header stacks grown or shrunk, and whole
   tables or parser states spliced *between* corpus members — so deep
   oracle paths reached once keep being exercised in nearby variants.

   Mutators are *type-preserving by intent, validated by the caller*:
   every mutant is pretty-printed back to source and must survive
   [Oracle.prepare_result] before it is used, so a mutator may produce
   an ill-typed program (a spliced table whose actions touch metadata
   the recipient lacks) and simply be discarded.  What a mutator must
   never do is (a) raise, or (b) leave the *defined-behavior*
   discipline of {!Progzoo.Randprog}: reads the generator leaves
   undefined are tainted by the oracle and randomized by the
   simulator, so differential runs stay sound either way.

   Everything is deterministic under the caller's [Random.State]: the
   same seed, recipient and donor produce the same mutant. *)

open P4.Ast

type rng = Random.State.t

let pick (st : rng) (xs : 'a list) =
  List.nth xs (Random.State.int st (List.length xs))

(* ------------------------------------------------------------------ *)
(* A generic traversal over every *mutable-constant* expression site.

   [EIndex] indices and call arguments are deliberately left alone:
   header-stack indices and extern arguments (register cell numbers)
   are structural — perturbing them buys nothing but out-of-bounds
   rejections. *)

let rec map_expr (f : expr -> expr) (e : expr) : expr =
  let e =
    match e with
    | EMember (a, n) -> EMember (map_expr f a, n)
    | EIndex (a, i) -> EIndex (map_expr f a, i)
    | ESlice (a, hi, lo) -> ESlice (map_expr f a, hi, lo)
    | EUnop (op, a) -> EUnop (op, map_expr f a)
    | EBinop (op, a, b) -> EBinop (op, map_expr f a, map_expr f b)
    | ETernary (c, t, e') -> ETernary (map_expr f c, map_expr f t, map_expr f e')
    | ECast (t, a) -> ECast (t, map_expr f a)
    | EList es -> EList (List.map (map_expr f) es)
    | EMask (a, m) -> EMask (map_expr f a, map_expr f m)
    | ERange (a, b) -> ERange (map_expr f a, map_expr f b)
    | ECall _ | EBool _ | EInt _ | EString _ | EVar _ | ETypeArg _
    | EDontCare | EDefault ->
        e
  in
  f e

let rec map_stmt f (s : stmt) : stmt =
  match s with
  | SAssign (p, l, r) -> SAssign (p, l, map_expr f r)
  | SIf (p, c, t, e) ->
      SIf (p, map_expr f c, List.map (map_stmt f) t, List.map (map_stmt f) e)
  | SSwitch (p, e, cases) ->
      SSwitch
        ( p,
          e,
          List.map
            (fun c -> { c with sw_body = Option.map (List.map (map_stmt f)) c.sw_body })
            cases )
  | SBlock b -> SBlock (List.map (map_stmt f) b)
  | SVarDecl (p, t, n, i) -> SVarDecl (p, t, n, Option.map (map_expr f) i)
  | SCall _ | SConstDecl _ | SReturn _ | SExit _ | SEmpty -> s

let map_local f = function
  | LAction a -> LAction { a with act_body = List.map (map_stmt f) a.act_body }
  | LTable t ->
      LTable
        {
          t with
          tbl_entries =
            List.map
              (fun e ->
                {
                  e with
                  te_keys = List.map (map_expr f) e.te_keys;
                  te_args = List.map (map_expr f) e.te_args;
                })
              t.tbl_entries;
        }
  | l -> l

let map_state f (st : parser_state) =
  {
    st with
    st_trans =
      (match st.st_trans with
      | TrDirect _ as t -> t
      | TrSelect (ks, cases) ->
          TrSelect
            ( ks,
              List.map
                (fun c -> { c with sel_keys = List.map (map_expr f) c.sel_keys })
                cases ));
  }

let map_const_sites (f : expr -> expr) (prog : program) : program =
  List.map
    (fun d ->
      match d with
      | DControl (cd, annos) ->
          DControl
            ( {
                cd with
                c_locals = List.map (map_local f) cd.c_locals;
                c_body = List.map (map_stmt f) cd.c_body;
              },
              annos )
      | DParser (pd, annos) ->
          DParser
            ( {
                pd with
                p_locals = List.map (map_local f) pd.p_locals;
                p_states = List.map (map_state f) pd.p_states;
              },
              annos )
      | DAction a -> DAction { a with act_body = List.map (map_stmt f) a.act_body }
      | d -> d)
    prog

(* ------------------------------------------------------------------ *)
(* 1. perturb a constant (value jitter inside the declared width) *)

let perturb_const (st : rng) ~donor:_ (prog : program) : program option =
  let count = ref 0 in
  ignore
    (map_const_sites
       (fun e -> (match e with EInt _ -> incr count | _ -> ()); e)
       prog);
  if !count = 0 then None
  else begin
    let target = Random.State.int st !count in
    let jitter ~iv ~width ~signed =
      let mask v =
        match width with
        | Some w when w < 62 -> v land ((1 lsl w) - 1)
        | _ -> max 0 v
      in
      let flip_bit =
        let range = match width with Some w -> max 1 (min w 24) | None -> 16 in
        1 lsl Random.State.int st range
      in
      let candidates =
        [
          0;
          mask (iv + 1);
          mask (iv - 1);
          mask (iv lxor flip_bit);
          (match width with Some w when w < 62 -> (1 lsl w) - 1 | _ -> mask (iv * 2));
        ]
      in
      let iv = pick st candidates in
      EInt
        {
          iv;
          width;
          signed;
          value = Option.map (fun w -> Bitv.Bits.of_int ~width:w iv) width;
        }
    in
    let i = ref (-1) in
    Some
      (map_const_sites
         (fun e ->
           match e with
           | EInt { iv; width; signed; _ } ->
               incr i;
               if !i = target then jitter ~iv ~width ~signed else e
           | e -> e)
         prog)
  end

(* ------------------------------------------------------------------ *)
(* 2. flip a match kind (tables without const entries only: entry
   patterns are written against the declared kind) *)

let flip_match_kind (st : rng) ~donor:_ (prog : program) : program option =
  let sites = ref [] in
  List.iteri
    (fun di d ->
      match d with
      | DControl (cd, _) ->
          List.iteri
            (fun li l ->
              match l with
              | LTable t when t.tbl_entries = [] ->
                  List.iteri (fun ki _ -> sites := (di, li, ki) :: !sites) t.tbl_keys
              | _ -> ())
            cd.c_locals
      | _ -> ())
    prog;
  match List.rev !sites with
  | [] -> None
  | sites ->
      let di, li, ki = pick st sites in
      Some
        (List.mapi
           (fun i d ->
             if i <> di then d
             else
               match d with
               | DControl (cd, annos) ->
                   let locals =
                     List.mapi
                       (fun j l ->
                         if j <> li then l
                         else
                           match l with
                           | LTable t ->
                               let keys =
                                 List.mapi
                                   (fun k (tk : table_key) ->
                                     if k <> ki then tk
                                     else
                                       let others =
                                         List.filter
                                           (fun m -> m <> tk.tk_kind)
                                           [ "exact"; "ternary"; "lpm" ]
                                       in
                                       { tk with tk_kind = pick st others })
                                   t.tbl_keys
                               in
                               LTable { t with tbl_keys = keys }
                           | l -> l)
                       cd.c_locals
                   in
                   DControl ({ cd with c_locals = locals }, annos)
               | d -> d)
           prog)

(* ------------------------------------------------------------------ *)
(* 3. perturb a const-entry priority *)

let perturb_priority (st : rng) ~donor:_ (prog : program) : program option =
  let sites = ref [] in
  List.iteri
    (fun di d ->
      match d with
      | DControl (cd, _) ->
          List.iteri
            (fun li l ->
              match l with
              | LTable t ->
                  List.iteri (fun ei _ -> sites := (di, li, ei) :: !sites) t.tbl_entries
              | _ -> ())
            cd.c_locals
      | _ -> ())
    prog;
  match List.rev !sites with
  | [] -> None
  | sites ->
      let di, li, ei = pick st sites in
      let prio = Some (1 + Random.State.int st 9) in
      Some
        (List.mapi
           (fun i d ->
             if i <> di then d
             else
               match d with
               | DControl (cd, annos) ->
                   let locals =
                     List.mapi
                       (fun j l ->
                         if j <> li then l
                         else
                           match l with
                           | LTable t ->
                               LTable
                                 {
                                   t with
                                   tbl_entries =
                                     List.mapi
                                       (fun k e ->
                                         if k <> ei then e
                                         else { e with te_priority = prio })
                                       t.tbl_entries;
                                 }
                           | l -> l)
                       cd.c_locals
                   in
                   DControl ({ cd with c_locals = locals }, annos)
               | d -> d)
           prog)

(* ------------------------------------------------------------------ *)
(* 4/5. grow / shrink a pipeline: duplicate or drop one top-level
   statement of the busiest controls.  Dropping an initialization is
   fine differentially (see the module comment) — but never empty a
   body entirely. *)

let body_sites prog =
  let sites = ref [] in
  List.iteri
    (fun di d ->
      match d with
      | DControl (cd, _) when cd.c_body <> [] -> sites := (di, cd) :: !sites
      | _ -> ())
    prog;
  List.rev !sites

let with_body prog di body =
  List.mapi
    (fun i d ->
      if i <> di then d
      else
        match d with
        | DControl (cd, annos) -> DControl ({ cd with c_body = body }, annos)
        | d -> d)
    prog

let dup_stmt (st : rng) ~donor:_ (prog : program) : program option =
  match body_sites prog with
  | [] -> None
  | sites ->
      let di, cd = pick st sites in
      let i = Random.State.int st (List.length cd.c_body) in
      let s = List.nth cd.c_body i in
      let body =
        List.concat (List.mapi (fun j x -> if j = i then [ x; s ] else [ x ]) cd.c_body)
      in
      Some (with_body prog di body)

(* only executable statements are droppable: removing a declaration
   orphans later uses, which fails differently in each engine *)
let droppable = function
  | SVarDecl _ | SConstDecl _ -> false
  | SAssign _ | SCall _ | SIf _ | SSwitch _ | SReturn _ | SExit _ | SBlock _ | SEmpty
    ->
      true

let drop_stmt (st : rng) ~donor:_ (prog : program) : program option =
  let sites =
    List.filter
      (fun (_, cd) ->
        List.length cd.c_body >= 2 && List.exists droppable cd.c_body)
      (body_sites prog)
  in
  match sites with
  | [] -> None
  | sites ->
      let di, cd = pick st sites in
      let idxs =
        List.concat
          (List.mapi (fun j s -> if droppable s then [ j ] else []) cd.c_body)
      in
      let i = pick st idxs in
      Some (with_body prog di (List.filteri (fun j _ -> j <> i) cd.c_body))

(* ------------------------------------------------------------------ *)
(* 5b. deepen a table-key expression: [e] becomes [e op e] (width-safe
   by construction).  This walks the mutant *out of the generator's
   bounded expression grammar* — the resulting canonical shapes are
   ones from-scratch generation can never produce, and they compound
   as corpus members are re-mutated across generations. *)

let complicate_key (st : rng) ~donor:_ (prog : program) : program option =
  let sites = ref [] in
  List.iteri
    (fun di d ->
      match d with
      | DControl (cd, _) ->
          List.iteri
            (fun li l ->
              match l with
              | LTable t ->
                  List.iteri
                    (fun ki (k : table_key) ->
                      (* lpm over a computed expression is not a
                         meaningful prefix match; keep those intact *)
                      if k.tk_kind <> "lpm" then sites := (di, li, ki) :: !sites)
                    t.tbl_keys
              | _ -> ())
            cd.c_locals
      | _ -> ())
    prog;
  match List.rev !sites with
  | [] -> None
  | sites ->
      let di, li, ki = pick st sites in
      let op = pick st [ BAnd; BOr; BXor ] in
      Some
        (List.mapi
           (fun i d ->
             if i <> di then d
             else
               match d with
               | DControl (cd, annos) ->
                   let locals =
                     List.mapi
                       (fun j l ->
                         if j <> li then l
                         else
                           match l with
                           | LTable t ->
                               LTable
                                 {
                                   t with
                                   tbl_keys =
                                     List.mapi
                                       (fun k (tk : table_key) ->
                                         if k <> ki then tk
                                         else
                                           { tk with tk_expr = EBinop (op, tk.tk_expr, tk.tk_expr) })
                                       t.tbl_keys;
                                 }
                           | l -> l)
                       cd.c_locals
                   in
                   DControl ({ cd with c_locals = locals }, annos)
               | d -> d)
           prog)

(* ------------------------------------------------------------------ *)
(* 5c. re-guard a copy of an earlier assignment under the negation of
   an existing condition.  Every operand involved was already
   evaluated before the insertion point, so defined-ness is preserved
   exactly; the branch context is new (fresh if-arm shapes). *)

let guard_dup (st : rng) ~donor:_ (prog : program) : program option =
  let sites = ref [] in
  List.iteri
    (fun di d ->
      match d with
      | DControl (cd, _) ->
          (* (position of an SIf, positions of SAssigns before it) *)
          List.iteri
            (fun k s ->
              match s with
              | SIf (_, _, _, _) ->
                  let assigns =
                    List.concat
                      (List.mapi
                         (fun j s' ->
                           match s' with SAssign _ when j < k -> [ j ] | _ -> [])
                         cd.c_body)
                  in
                  if assigns <> [] then sites := (di, k, assigns) :: !sites
              | _ -> ())
            cd.c_body
      | _ -> ())
    prog;
  match List.rev !sites with
  | [] -> None
  | sites ->
      let di, k, assigns = pick st sites in
      let j = pick st assigns in
      Some
        (List.mapi
           (fun i d ->
             if i <> di then d
             else
               match d with
               | DControl (cd, annos) ->
                   let cond =
                     match List.nth cd.c_body k with
                     | SIf (_, c, _, _) -> c
                     | _ -> assert false
                   in
                   let dup = List.nth cd.c_body j in
                   let guard = SIf (no_pos, EUnop (LNot, cond), [ dup ], []) in
                   let body =
                     List.concat
                       (List.mapi
                          (fun x s -> if x = k then [ s; guard ] else [ s ])
                          cd.c_body)
                   in
                   DControl ({ cd with c_body = body }, annos)
               | d -> d)
           prog)

(* ------------------------------------------------------------------ *)
(* Field compatibility for splices.

   Generated programs share one header-type vocabulary (the type
   declarations are a constant preamble), but each program's
   [headers_t] picks a *subset* of the fields.  A spliced fragment
   that touches [hdr.X] therefore types — and runs — in the recipient
   iff [X] is a field of the recipient's [headers_t]; anything else
   produces an engine-dependent failure (the oracle fails the path,
   the simulator crashes the test), which is a mutator bug, not a
   finding.  Metadata and intrinsic structs are per-arch constants, so
   [hdr] roots are the only membership that needs checking. *)

let struct_field_names prog name =
  List.concat_map
    (function
      | DStruct (n, fs, _) when n = name -> List.map (fun f -> f.f_name) fs
      | _ -> [])
    prog

let rec hdr_roots acc (e : expr) : string list =
  match e with
  | EMember (EVar "hdr", f) -> f :: acc
  | EMember (a, _) | EUnop (_, a) | ECast (_, a) | ESlice (a, _, _) -> hdr_roots acc a
  | EIndex (a, i) -> hdr_roots (hdr_roots acc i) a
  | EBinop (_, a, b) | EMask (a, b) | ERange (a, b) -> hdr_roots (hdr_roots acc a) b
  | ETernary (a, b, c) -> hdr_roots (hdr_roots (hdr_roots acc a) b) c
  | ECall (f, args) -> List.fold_left hdr_roots (hdr_roots acc f) args
  | EList es -> List.fold_left hdr_roots acc es
  | EBool _ | EInt _ | EString _ | EVar _ | ETypeArg _ | EDontCare | EDefault -> acc

let rec stmt_hdr_roots acc (s : stmt) : string list =
  match s with
  | SAssign (_, l, r) -> hdr_roots (hdr_roots acc l) r
  | SCall (_, f, args) -> List.fold_left hdr_roots (hdr_roots acc f) args
  | SIf (_, c, t, e) ->
      let acc = hdr_roots acc c in
      List.fold_left stmt_hdr_roots (List.fold_left stmt_hdr_roots acc t) e
  | SSwitch (_, e, cases) ->
      List.fold_left
        (fun acc c -> Option.fold ~none:acc ~some:(List.fold_left stmt_hdr_roots acc) c.sw_body)
        (hdr_roots acc e) cases
  | SBlock b -> List.fold_left stmt_hdr_roots acc b
  | SVarDecl (_, _, _, i) -> Option.fold ~none:acc ~some:(hdr_roots acc) i
  | SConstDecl (_, _, _, e) -> hdr_roots acc e
  | SReturn (_, e) -> Option.fold ~none:acc ~some:(hdr_roots acc) e
  | SExit _ | SEmpty -> acc

let compatible ~recipient roots =
  let fields = struct_field_names recipient "headers_t" in
  List.for_all (fun r -> List.mem r fields) roots

(* ------------------------------------------------------------------ *)
(* 6. grow a header stack (one more slot for the parser's extraction
   loop and the overflow path).  Growth only: shrinking below the
   number of static extracts turns the overflow path into an
   engine-dependent failure rather than a semantic variant. *)

let resize_stack (st : rng) ~donor:_ (prog : program) : program option =
  let sites = ref [] in
  List.iteri
    (fun di d ->
      match d with
      | DStruct (_, fields, _) ->
          List.iteri
            (fun fi f ->
              match f.f_typ with
              | TStack (_, n) when n < 6 -> sites := (di, fi) :: !sites
              | _ -> ())
            fields
      | _ -> ())
    prog;
  match List.rev !sites with
  | [] -> None
  | sites ->
      let di, fi = pick st sites in
      Some
        (List.mapi
           (fun i d ->
             if i <> di then d
             else
               match d with
               | DStruct (n, fields, annos) ->
                   let fields =
                     List.mapi
                       (fun j f ->
                         if j <> fi then f
                         else
                           match f.f_typ with
                           | TStack (h, n) when n < 6 ->
                               { f with f_typ = TStack (h, n + 1 + Random.State.int st 2) }
                           | _ -> f)
                       fields
                   in
                   DStruct (n, fields, annos)
               | d -> d)
           prog)

(* ------------------------------------------------------------------ *)
(* 7. splice a table (with its actions) from a donor corpus member *)

(* the recipient control most likely to type an imported fragment: the
   one with the most locals (the ingress pipeline), body length as the
   tie-break *)
let busiest_control prog =
  let best = ref None in
  List.iteri
    (fun di d ->
      match d with
      | DControl (cd, _) when cd.c_body <> [] ->
          let score = (List.length cd.c_locals, List.length cd.c_body) in
          (match !best with
          | Some (_, _, s) when s >= score -> ()
          | _ -> best := Some (di, cd, score))
      | _ -> ())
    prog;
  Option.map (fun (di, cd, _) -> (di, cd)) !best

let rename_anno sfx (a : anno) =
  if a.an_name <> "name" then a
  else
    {
      a with
      an_args =
        List.map
          (function
            | AnnoString s -> AnnoString (s ^ sfx)
            | AnnoExpr (EString s) -> AnnoExpr (EString (s ^ sfx))
            | x -> x)
          a.an_args;
    }

let splice_table (st : rng) ~donor (prog : program) : program option =
  match donor with
  | None -> None
  | Some donor -> (
      (* donor tables whose referenced actions are all local to the
         same control (the generator's shape) *)
      let candidates =
        List.concat_map
          (function
            | DControl (cd, _) ->
                List.filter_map
                  (function
                    | LTable t ->
                        let deps =
                          List.filter_map
                            (fun (n, _) ->
                              List.find_map
                                (function
                                  | LAction a when a.act_name = n -> Some a
                                  | _ -> None)
                                cd.c_locals)
                            t.tbl_actions
                        in
                        if List.length deps <> List.length t.tbl_actions then None
                        else
                          let roots =
                            List.fold_left
                              (fun acc (k : table_key) -> hdr_roots acc k.tk_expr)
                              (List.concat_map
                                 (fun a -> List.fold_left stmt_hdr_roots [] a.act_body)
                                 deps)
                              t.tbl_keys
                          in
                          if compatible ~recipient:prog roots then Some (t, deps)
                          else None
                    | _ -> None)
                  cd.c_locals
            | _ -> [])
          donor
      in
      match (candidates, busiest_control prog) with
      | [], _ | _, None -> None
      | candidates, Some (di, cd) ->
          let t, deps = pick st candidates in
          let sfx = Printf.sprintf "_sp%d" (1 + Random.State.int st 997) in
          let actions =
            List.map
              (fun a ->
                LAction
                  { a with act_name = a.act_name ^ sfx; act_annos = List.map (rename_anno sfx) a.act_annos })
              deps
          in
          let table =
            LTable
              {
                t with
                tbl_name = t.tbl_name ^ sfx;
                tbl_keys =
                  List.map
                    (fun k -> { k with tk_annos = List.map (rename_anno sfx) k.tk_annos })
                    t.tbl_keys;
                tbl_actions = List.map (fun (n, an) -> (n ^ sfx, an)) t.tbl_actions;
                tbl_default = Option.map (fun (n, args) -> (n ^ sfx, args)) t.tbl_default;
                tbl_entries =
                  List.map (fun e -> { e with te_action = e.te_action ^ sfx }) t.tbl_entries;
                tbl_annos = List.map (rename_anno sfx) t.tbl_annos;
              }
          in
          let cd' =
            {
              cd with
              c_locals = cd.c_locals @ actions @ [ table ];
              c_body =
                cd.c_body
                @ [ SCall (no_pos, EMember (EVar (t.tbl_name ^ sfx), "apply"), []) ];
            }
          in
          Some
            (List.mapi
               (fun i d ->
                 if i <> di then d
                 else match d with DControl (_, annos) -> DControl (cd', annos) | d -> d)
               prog))

(* ------------------------------------------------------------------ *)
(* 8. splice a parser state from a donor, reached through a fresh
   select arm (inserted first, so it shadows overlapping arms — a
   semantic change, which is the point) *)

let splice_state (st : rng) ~donor (prog : program) : program option =
  match donor with
  | None -> None
  | Some donor -> (
      let donor_states =
        List.concat_map
          (function
            | DParser (pd, _) ->
                List.filter
                  (fun s ->
                    s.st_name <> "start"
                    &&
                    let roots =
                      List.fold_left stmt_hdr_roots
                        (match s.st_trans with
                        | TrDirect _ -> []
                        | TrSelect (ks, cases) ->
                            List.fold_left hdr_roots
                              (List.concat_map
                                 (fun c -> List.fold_left hdr_roots [] c.sel_keys)
                                 cases)
                              ks)
                        s.st_stmts
                    in
                    compatible ~recipient:prog roots)
                  pd.p_states
            | _ -> [])
          donor
      in
      let recipients =
        List.filter_map
          (fun d ->
            match d with
            | DParser (pd, _)
              when List.exists
                     (fun s ->
                       match s.st_trans with TrSelect _ -> true | _ -> false)
                     pd.p_states ->
                Some pd.p_name
            | _ -> None)
          prog
      in
      match (donor_states, recipients) with
      | [], _ | _, [] -> None
      | donor_states, recipients ->
          let ds = pick st donor_states in
          let pname = pick st recipients in
          let sfx = Printf.sprintf "_sp%d" (1 + Random.State.int st 997) in
          let name = ds.st_name ^ sfx in
          let arm_value = Random.State.int st 256 in
          Some
            (List.map
               (fun d ->
                 match d with
                 | DParser (pd, annos) when pd.p_name = pname ->
                     let known =
                       "accept" :: "reject" :: name
                       :: List.map (fun s -> s.st_name) pd.p_states
                     in
                     let fix n = if List.mem n known then n else "accept" in
                     let ds' =
                       {
                         ds with
                         st_name = name;
                         st_trans =
                           (match ds.st_trans with
                           | TrDirect n -> TrDirect (fix n)
                           | TrSelect (ks, cases) ->
                               TrSelect
                                 ( ks,
                                   List.map
                                     (fun c -> { c with sel_next = fix c.sel_next })
                                     cases ));
                       }
                     in
                     (* retarget one select: a fresh first arm into the
                        spliced state *)
                     let sel_states =
                       List.filter
                         (fun s ->
                           match s.st_trans with TrSelect _ -> true | _ -> false)
                         pd.p_states
                     in
                     let target = (pick st sel_states).st_name in
                     let states =
                       List.map
                         (fun s ->
                           if s.st_name <> target then s
                           else
                             match s.st_trans with
                             | TrSelect (ks, cases) ->
                                 let arm =
                                   {
                                     sel_keys = List.map (fun _ -> int_lit arm_value) ks;
                                     sel_next = name;
                                   }
                                 in
                                 { s with st_trans = TrSelect (ks, arm :: cases) }
                             | _ -> s)
                         pd.p_states
                     in
                     DParser ({ pd with p_states = states @ [ ds' ] }, annos)
                 | d -> d)
               prog))

(* ------------------------------------------------------------------ *)
(* 5d. deepen an if-condition: [c] becomes [!c], [c && c] or [c || c].
   Evaluation-safe (same operands, same point) and always well-typed.
   Every statement under the if lives in a branch *context* that
   embeds the condition's canonical shape, so this renames the shape
   of the whole subtree — coverage keys the bounded generator grammar
   can never mint, and re-mutating a corpus member compounds the
   depth, so the vocabulary never dries up. *)

let deepen_cond (st : rng) ~donor:_ (prog : program) : program option =
  let deepened = ref 0 in
  let deepen c =
    incr deepened;
    (* when the condition compares a value against a width-annotated
       constant we know the value's width, so we can conjoin a fresh
       *slice* comparison over the same (already-read, hence defined)
       value: slice bounds survive canonicalization, so these keep
       minting new branch contexts across mutation generations *)
    let slice_atom =
      match c with
      | EBinop (_, x, EInt { width = Some w; _ }) when w >= 2 ->
          let lo = Random.State.int st (w - 1) in
          let hi = lo + Random.State.int st (w - lo) in
          let sw = hi - lo + 1 in
          Some
            (EBinop
               ( Eq,
                 ESlice (x, hi, lo),
                 int_lit ~width:sw (Random.State.int st (1 lsl min sw 24)) ))
      | _ -> None
    in
    match (slice_atom, Random.State.int st 3) with
    | Some a, 0 -> EBinop (LAnd, c, a)
    | Some a, _ -> EBinop (LOr, c, a)
    | None, 0 -> EUnop (LNot, c)
    | None, 1 -> EBinop (LAnd, c, c)
    | None, _ -> EBinop (LOr, c, c)
  in
  (* deepen every if at every depth — control bodies, nested branches
     and action bodies alike: statements nested under each if inherit
     the renamed context too, so one draw yields a whole program's
     worth of new branch contexts *)
  let rec deepen_stmt (s : stmt) : stmt =
    match s with
    | SIf (p, c, t, e) ->
        SIf (p, deepen c, List.map deepen_stmt t, List.map deepen_stmt e)
    | SBlock b -> SBlock (List.map deepen_stmt b)
    | SSwitch (p, e, cases) ->
        SSwitch
          ( p,
            e,
            List.map
              (fun c -> { c with sw_body = Option.map (List.map deepen_stmt) c.sw_body })
              cases )
    | s -> s
  in
  let deepen_local = function
    | LAction a -> LAction { a with act_body = List.map deepen_stmt a.act_body }
    | l -> l
  in
  let prog' =
    List.map
      (fun d ->
        match d with
        | DControl (cd, annos) ->
            DControl
              ( {
                  cd with
                  c_body = List.map deepen_stmt cd.c_body;
                  c_locals = List.map deepen_local cd.c_locals;
                },
                annos )
        | DAction a -> DAction { a with act_body = List.map deepen_stmt a.act_body }
        | d -> d)
      prog
  in
  if !deepened = 0 then None else Some prog'

(* ------------------------------------------------------------------ *)
(* 5e. guard action statements behind fresh branches on *slices* of
   the action's own value parameters.  Action parameters are table
   action-data — always defined when the body runs — so the new
   conditions are differentially safe, and each one genuinely splits
   the action's behavior: the oracle explores both arms (more tests,
   bitvector extract constraints in the solver).  Crucially, slice
   bounds survive canonicalization ([_[11:3]] is a different shape
   from [_[10:3]]), so unlike whole-value guards — whose [(_==k8)]
   shape is minted once and never again — random slice bounds keep
   producing coverage keys the generator grammar has no production
   for, across arbitrarily many mutation generations. *)

let guard_action (st : rng) ~donor:_ (prog : program) : program option =
  let value_params (a : action_decl) =
    List.filter (fun p -> match p.par_typ with TBit _ -> true | _ -> false) a.act_params
  in
  (* concrete argument values each action receives from constant table
     entries, keyed by parameter name.  Constant-entry tables invoke
     their actions with *fixed* data, so a guard whose constant is
     derived from an actual entry value is true on that entry's branch
     — a purely random constant would almost always be concretely
     false, leaving the guarded statement dead under every entry. *)
  let entry_args : (string, string * int) Hashtbl.t = Hashtbl.create 8 in
  let actions_by_name : (string, action_decl) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let locals =
        match d with
        | DControl (cd, _) -> cd.c_locals
        | DAction a ->
            Hashtbl.replace actions_by_name a.act_name a;
            []
        | _ -> []
      in
      List.iter
        (function LAction a -> Hashtbl.replace actions_by_name a.act_name a | _ -> ())
        locals)
    prog;
  List.iter
    (fun d ->
      match d with
      | DControl (cd, _) ->
          List.iter
            (function
              | LTable t ->
                  List.iter
                    (fun (e : table_entry) ->
                      match Hashtbl.find_opt actions_by_name e.te_action with
                      | Some a when List.length a.act_params = List.length e.te_args
                        ->
                          List.iter2
                            (fun (p : param) arg ->
                              match arg with
                              | EInt { iv; _ } when iv >= 0 ->
                                  Hashtbl.add entry_args a.act_name (p.par_name, iv)
                              | _ -> ())
                            a.act_params e.te_args
                      | _ -> ())
                    t.tbl_entries
              | _ -> ())
            cd.c_locals
      | _ -> ())
    prog;
  let wrapped = ref 0 in
  let slice_cond (a : action_decl) params =
    let p = pick st params in
    let w = match p.par_typ with TBit w -> w | _ -> assert false in
    (* concrete values this parameter takes under constant entries (if
       any): with probability 3/4 the guard constant is derived from
       one of them, so the true arm is reachable on that entry *)
    let concrete =
      List.filter_map
        (fun (n, v) -> if n = p.par_name then Some v else None)
        (Hashtbl.find_all entry_args a.act_name)
    in
    let konst ~width ~of_val =
      if concrete <> [] && Random.State.int st 4 < 3 then of_val (pick st concrete)
      else Random.State.int st (1 lsl min width 24)
    in
    if w >= 4 && Random.State.bool st then begin
      (* combine two equal-width slices of the parameter: the shape
         space is cubic in the width, so even narrow bit<8> parameters
         don't exhaust their mintable vocabulary mid-campaign *)
      let len = 1 + Random.State.int st (min w 16) in
      let lo1 = Random.State.int st (w - len + 1) in
      let lo2 = Random.State.int st (w - len + 1) in
      let op = pick st [ BAnd; BOr; BXor ] in
      let mask = (1 lsl min len 24) - 1 in
      let of_val v =
        let s1 = (v asr lo1) land mask and s2 = (v asr lo2) land mask in
        match op with BAnd -> s1 land s2 | BOr -> s1 lor s2 | _ -> s1 lxor s2
      in
      EBinop
        ( Eq,
          EBinop
            ( op,
              ESlice (EVar p.par_name, lo1 + len - 1, lo1),
              ESlice (EVar p.par_name, lo2 + len - 1, lo2) ),
          int_lit ~width:len (konst ~width:len ~of_val) )
    end
    else if w >= 2 then begin
      let lo = Random.State.int st (w - 1) in
      let hi = lo + Random.State.int st (w - lo) in
      let sw = hi - lo + 1 in
      let of_val v = (v asr lo) land ((1 lsl min sw 24) - 1) in
      EBinop
        ( Eq,
          ESlice (EVar p.par_name, hi, lo),
          int_lit ~width:sw (konst ~width:sw ~of_val) )
    end
    else
      EBinop
        ( Eq,
          EVar p.par_name,
          int_lit ~width:w (konst ~width:1 ~of_val:(fun v -> v land 1)) )
  in
  let guard (a : action_decl) =
    match value_params a with
    | [] -> a
    (* bound per-generation growth: once an action body is large
       enough, stop wrapping it and let other actions take the churn *)
    | _ when List.length a.act_body > 12 -> a
    | params ->
        (* every statement gets its own guard with its own fresh
           slice, so yield scales with the program and re-mutation
           nests contexts instead of replaying them; half the guards
           carry an else-copy, minting both arm contexts *)
        let body =
          List.map
            (fun s ->
              incr wrapped;
              let els = if Random.State.bool st then [ s ] else [] in
              SIf (no_pos, slice_cond a params, [ s ], els))
            a.act_body
        in
        { a with act_body = body }
  in
  let prog' =
    List.map
      (fun d ->
        match d with
        | DControl (cd, annos) ->
            let locals =
              List.map (function LAction a -> LAction (guard a) | l -> l) cd.c_locals
            in
            DControl ({ cd with c_locals = locals }, annos)
        | DAction a -> DAction (guard a)
        | d -> d)
      prog
  in
  if !wrapped = 0 then None else Some prog'

(* ------------------------------------------------------------------ *)
(* 5f. guard control apply-body statements behind fresh slice
   conditions over the Ethernet header — which every generated parser
   extracts unconditionally, so the sliced fields are defined and
   *symbolic* (packet-derived) wherever the apply body runs.  Both
   arms of each new branch are therefore satisfiable, which makes
   these guards the cheapest mint under the campaign's small per-case
   test budget: the control body is on every path, so the very first
   explored paths already cover the new contexts, unlike action-body
   guards whose leaves sit behind a table hit. *)

let guard_apply (st : rng) ~donor:_ (prog : program) : program option =
  let fields = [ ("src", 48); ("dst", 48); ("etype", 16) ] in
  let slice_cond () =
    let f, w = pick st fields in
    let base = EMember (EMember (EVar "hdr", "eth"), f) in
    let lo = Random.State.int st (w - 1) in
    let hi = lo + Random.State.int st (min (w - lo) 16) in
    let sw = hi - lo + 1 in
    EBinop
      ( Eq,
        ESlice (base, hi, lo),
        int_lit ~width:sw (Random.State.int st (1 lsl min sw 24)) )
  in
  let wrappable = function
    | SAssign _ | SCall _ | SIf _ | SSwitch _ | SBlock _ -> true
    | _ -> false
  in
  (* bound per-generation growth the same way [guard_action] does:
     stop nesting once a statement is already three branches deep *)
  let rec depth s =
    match s with
    | SIf (_, _, t, e) ->
        1 + List.fold_left (fun a s -> max a (depth s)) 0 (t @ e)
    | SBlock b -> List.fold_left (fun a s -> max a (depth s)) 0 b
    | _ -> 0
  in
  let wrapped = ref 0 in
  let prog' =
    List.map
      (fun d ->
        match d with
        | DControl (cd, annos)
          when List.exists (fun (p : param) -> p.par_name = "hdr") cd.c_params
               && List.length cd.c_body <= 24 ->
            let body =
              List.map
                (fun s ->
                  if wrappable s && depth s <= 2 && Random.State.bool st then begin
                    incr wrapped;
                    let els = if Random.State.bool st then [ s ] else [] in
                    SIf (no_pos, slice_cond (), [ s ], els)
                  end
                  else s)
                cd.c_body
            in
            DControl ({ cd with c_body = body }, annos)
        | d -> d)
      prog
  in
  if !wrapped = 0 then None else Some prog'

(* ------------------------------------------------------------------ *)
(* Driver *)

let mutators :
    (string * (rng -> donor:program option -> program -> program option)) list =
  [
    ("perturb_const", perturb_const);
    ("flip_match_kind", flip_match_kind);
    ("perturb_priority", perturb_priority);
    ("dup_stmt", dup_stmt);
    ("drop_stmt", drop_stmt);
    ("resize_stack", resize_stack);
    ("splice_table", splice_table);
    ("splice_state", splice_state);
    ("complicate_key", complicate_key);
    ("guard_dup", guard_dup);
    ("deepen_cond", deepen_cond);
    ("guard_action", guard_action);
    ("guard_apply", guard_apply);
  ]

(* Growth, splice and expression-deepening mutators dominate the draw:
   they are the ones that push mutants past the generator's own
   distribution (more paths per program, cross-program shape
   combinations, expression trees deeper than the generator's bound),
   which is where coverage novelty comes from.  Pure perturbations
   mostly steer *which* of the existing paths the solver picks, so
   they contribute little novelty and get small weights. *)
let weighted_mutators =
  let w n = List.assoc n mutators in
  [
    (8, "guard_apply", w "guard_apply");
    (6, "guard_action", w "guard_action");
    (3, "deepen_cond", w "deepen_cond");
    (2, "guard_dup", w "guard_dup");
    (1, "splice_table", w "splice_table");
    (1, "splice_state", w "splice_state");
    (1, "resize_stack", w "resize_stack");
    (1, "complicate_key", w "complicate_key");
    (1, "dup_stmt", w "dup_stmt");
    (1, "perturb_const", w "perturb_const");
    (1, "flip_match_kind", w "flip_match_kind");
    (1, "perturb_priority", w "perturb_priority");
    (1, "drop_stmt", w "drop_stmt");
  ]

(* The first round draws only coverage-bearing structural mutators
   (fresh branch contexts every time); later rounds mix in the pure
   perturbations, which rarely mint keys but diversify behavior. *)
let first_round_mutators =
  let w n = List.assoc n mutators in
  [
    (5, "guard_apply", w "guard_apply");
    (3, "guard_action", w "guard_action");
    (1, "deepen_cond", w "deepen_cond");
    (1, "guard_dup", w "guard_dup");
  ]

let draw_weighted (st : rng) table =
  let total = List.fold_left (fun a (w, _, _) -> a + w) 0 table in
  let r = Random.State.int st total in
  let rec go r = function
    | [ (_, n, m) ] -> (n, m)
    | (w, n, m) :: rest -> if r < w then (n, m) else go (r - w) rest
    | [] -> assert false
  in
  go r table

let draw_mutator ?(round = 1) (st : rng) =
  draw_weighted st (if round = 0 then first_round_mutators else weighted_mutators)

type mutation = {
  m_src : string;  (** the mutant, pretty-printed back to source *)
  m_ops : string list;  (** mutator names applied, in order *)
}

(** [mutate ~seed ?donor src] applies 1–3 randomly drawn mutators to
    [src] (splices draw from [donor]).  Returns [None] when [src] does
    not parse or no drawn mutator applies.  Deterministic in
    [(seed, src, donor)].  The result is *not* validated here: callers
    gate it through {!Testgen.Oracle.prepare_result}. *)
let mutate ~seed ?donor (src : string) : mutation option =
  match P4.Parser.parse_program src with
  | exception _ -> None
  | prog -> (
      let donor =
        Option.bind donor (fun d ->
            match P4.Parser.parse_program d with
            | d -> Some d
            | exception _ -> None)
      in
      let st = Random.State.make [| seed; 0x4D55_5441 |] in
      let rounds = 1 + Random.State.int st 3 in
      let prog', ops =
        List.fold_left
          (fun (p, ops) round ->
            let name, m = draw_mutator ~round st in
            match m st ~donor p with
            | Some p' -> (p', name :: ops)
            | None -> (p, ops))
          (prog, [])
          (List.init rounds Fun.id)
      in
      match ops with
      | [] -> None
      | ops -> Some { m_src = P4.Pretty.program_to_string prog'; m_ops = List.rev ops })
