(* Recursive-descent parser for the P4-16 subset. *)

open Ast

exception Error of string * pos

type t = { lx : Lexer.t }

let err p msg = raise (Error (msg, snd (Lexer.peek p.lx)))

let next p = Lexer.next p.lx
let peek_tok p = fst (Lexer.peek p.lx)
let peek2_tok p = fst (Lexer.peek2 p.lx)

let expect p tok =
  let got, pos = next p in
  if got <> tok then
    raise
      (Error
         ( Printf.sprintf "expected %s but found %s" (Lexer.show_token tok)
             (Lexer.show_token got),
           pos ))

let expect_ident p =
  match next p with
  | Lexer.IDENT s, _ -> s
  | got, pos ->
      raise (Error ("expected identifier, found " ^ Lexer.show_token got, pos))

let accept p tok =
  if peek_tok p = tok then begin
    ignore (next p);
    true
  end
  else false

let cur_pos p = snd (Lexer.peek p.lx)

(* save/restore for backtracking (type-argument ambiguity) *)
type snapshot = int * int * int * (Lexer.token * pos) option * (Lexer.token * pos) option

let save p : snapshot =
  let lx = p.lx in
  (lx.Lexer.pos, lx.Lexer.line, lx.Lexer.col, lx.Lexer.peeked, lx.Lexer.peeked2)

let restore p ((pos, line, col, pk, pk2) : snapshot) =
  let lx = p.lx in
  lx.Lexer.pos <- pos;
  lx.Lexer.line <- line;
  lx.Lexer.col <- col;
  lx.Lexer.peeked <- pk;
  lx.Lexer.peeked2 <- pk2

let try_parse p f =
  let snap = save p in
  try Some (f p)
  with Error _ | Lexer.Error _ ->
    restore p snap;
    None

(* ------------------------------------------------------------------ *)
(* Types *)

let rec parse_type p =
  match next p with
  | Lexer.IDENT "bit", _ ->
      if accept p Lexer.LANGLE then begin
        let w = parse_const_int p in
        expect p Lexer.RANGLE;
        TBit w
      end
      else TBit 1
  | Lexer.IDENT "int", _ ->
      expect p Lexer.LANGLE;
      let w = parse_const_int p in
      expect p Lexer.RANGLE;
      TInt w
  | Lexer.IDENT "varbit", _ ->
      expect p Lexer.LANGLE;
      let w = parse_const_int p in
      expect p Lexer.RANGLE;
      TVarbit w
  | Lexer.IDENT "bool", _ -> TBool
  | Lexer.IDENT "error", _ -> TError
  | Lexer.IDENT "void", _ -> TVoid
  | Lexer.IDENT name, _ ->
      if peek_tok p = Lexer.LANGLE then begin
        ignore (next p);
        let args = ref [ parse_type p ] in
        while accept p Lexer.COMMA do
          args := parse_type p :: !args
        done;
        expect p Lexer.RANGLE;
        TSpec (name, List.rev !args)
      end
      else if
        peek_tok p = Lexer.LBRACKET
        && match peek2_tok p with Lexer.NUMBER _ -> true | _ -> false
      then begin
        expect p Lexer.LBRACKET;
        let n = parse_const_int p in
        expect p Lexer.RBRACKET;
        TStack (name, n)
      end
      else TName name
  | got, pos -> raise (Error ("expected a type, found " ^ Lexer.show_token got, pos))

and parse_const_int p =
  match next p with
  | Lexer.NUMBER { iv; _ }, _ -> iv
  | got, pos -> raise (Error ("expected integer, found " ^ Lexer.show_token got, pos))

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing *)

let rec parse_expr p = parse_ternary p

and parse_ternary p =
  let c = parse_lor p in
  if accept p Lexer.QUESTION then begin
    let t = parse_expr p in
    expect p Lexer.COLON;
    let f = parse_ternary p in
    ETernary (c, t, f)
  end
  else c

and parse_lor p =
  let rec go acc =
    if accept p Lexer.PIPE_PIPE then go (EBinop (LOr, acc, parse_land p)) else acc
  in
  go (parse_land p)

and parse_land p =
  let rec go acc =
    if accept p Lexer.AMP_AMP then go (EBinop (LAnd, acc, parse_equality p)) else acc
  in
  go (parse_equality p)

and parse_equality p =
  let rec go acc =
    match peek_tok p with
    | Lexer.EQ_EQ ->
        ignore (next p);
        go (EBinop (Eq, acc, parse_rel p))
    | Lexer.NEQ ->
        ignore (next p);
        go (EBinop (Neq, acc, parse_rel p))
    | _ -> acc
  in
  go (parse_rel p)

and parse_rel p =
  let rec go acc =
    match peek_tok p with
    | Lexer.LANGLE ->
        ignore (next p);
        go (EBinop (Lt, acc, parse_bor p))
    | Lexer.RANGLE when not (rangle_is_shift p) ->
        ignore (next p);
        go (EBinop (Gt, acc, parse_bor p))
    | Lexer.LE ->
        ignore (next p);
        go (EBinop (Le, acc, parse_bor p))
    | Lexer.GE ->
        ignore (next p);
        go (EBinop (Ge, acc, parse_bor p))
    | _ -> acc
  in
  go (parse_bor p)

and rangle_is_shift p =
  (* two adjacent RANGLEs form a right shift *)
  match (Lexer.peek p.lx, Lexer.peek2 p.lx) with
  | (Lexer.RANGLE, p1), (Lexer.RANGLE, p2) ->
      p2.line = p1.line && p2.col = p1.col + 1
  | _ -> false

and parse_bor p =
  let rec go acc =
    if peek_tok p = Lexer.PIPE then begin
      ignore (next p);
      go (EBinop (BOr, acc, parse_bxor p))
    end
    else acc
  in
  go (parse_bxor p)

and parse_bxor p =
  let rec go acc =
    if accept p Lexer.CARET then go (EBinop (BXor, acc, parse_band p)) else acc
  in
  go (parse_band p)

and parse_band p =
  let rec go acc =
    if peek_tok p = Lexer.AMP then begin
      ignore (next p);
      go (EBinop (BAnd, acc, parse_shift p))
    end
    else acc
  in
  go (parse_shift p)

and parse_shift p =
  let rec go acc =
    match peek_tok p with
    | Lexer.SHL ->
        ignore (next p);
        go (EBinop (Shl, acc, parse_additive p))
    | Lexer.RANGLE when rangle_is_shift p ->
        ignore (next p);
        ignore (next p);
        go (EBinop (Shr, acc, parse_additive p))
    | _ -> acc
  in
  go (parse_additive p)

and parse_additive p =
  let rec go acc =
    match peek_tok p with
    | Lexer.PLUS ->
        ignore (next p);
        go (EBinop (Add, acc, parse_mult p))
    | Lexer.MINUS ->
        ignore (next p);
        go (EBinop (Sub, acc, parse_mult p))
    | Lexer.PLUS_SAT ->
        ignore (next p);
        go (EBinop (AddSat, acc, parse_mult p))
    | Lexer.MINUS_SAT ->
        ignore (next p);
        go (EBinop (SubSat, acc, parse_mult p))
    | Lexer.PLUSPLUS ->
        ignore (next p);
        go (EBinop (Concat, acc, parse_mult p))
    | _ -> acc
  in
  go (parse_mult p)

and parse_mult p =
  let rec go acc =
    match peek_tok p with
    | Lexer.STAR ->
        ignore (next p);
        go (EBinop (Mul, acc, parse_unary p))
    | Lexer.SLASH ->
        ignore (next p);
        go (EBinop (Div, acc, parse_unary p))
    | Lexer.PERCENT ->
        ignore (next p);
        go (EBinop (Mod, acc, parse_unary p))
    | _ -> acc
  in
  go (parse_unary p)

and parse_unary p =
  match peek_tok p with
  | Lexer.BANG ->
      ignore (next p);
      EUnop (LNot, parse_unary p)
  | Lexer.TILDE ->
      ignore (next p);
      EUnop (BitNot, parse_unary p)
  | Lexer.MINUS ->
      ignore (next p);
      EUnop (Neg, parse_unary p)
  | _ -> parse_postfix p

and parse_postfix p =
  let rec go acc =
    match peek_tok p with
    | Lexer.DOT ->
        ignore (next p);
        let m = expect_ident p in
        go (EMember (acc, m))
    | Lexer.LBRACKET ->
        ignore (next p);
        let i = parse_expr p in
        if accept p Lexer.COLON then begin
          let lo = parse_expr p in
          expect p Lexer.RBRACKET;
          match (i, lo) with
          | EInt { iv = hi; _ }, EInt { iv = lo; _ } -> go (ESlice (acc, hi, lo))
          | _ -> err p "slice bounds must be constant"
        end
        else begin
          expect p Lexer.RBRACKET;
          go (EIndex (acc, i))
        end
    | Lexer.LPAREN ->
        ignore (next p);
        let args = parse_args p in
        expect p Lexer.RPAREN;
        go (ECall (acc, args))
    | Lexer.LANGLE -> (
        (* possible explicit type argument: m<bit<16>>(...) *)
        match
          try_parse p (fun p ->
              expect p Lexer.LANGLE;
              let t = parse_type p in
              expect p Lexer.RANGLE;
              expect p Lexer.LPAREN;
              let args = parse_args p in
              expect p Lexer.RPAREN;
              (t, args))
        with
        | Some (t, args) -> go (ECall (acc, ETypeArg t :: args))
        | None -> acc)
    | _ -> acc
  in
  go (parse_primary p)

and parse_args p =
  if peek_tok p = Lexer.RPAREN then []
  else begin
    let args = ref [ parse_expr p ] in
    while accept p Lexer.COMMA do
      args := parse_expr p :: !args
    done;
    List.rev !args
  end

and parse_primary p =
  match peek_tok p with
  | Lexer.NUMBER { iv; width; signed; _ } ->
      ignore (next p);
      let value = Option.map (fun w -> Bitv.Bits.of_int ~width:w iv) width in
      EInt { value; iv; width; signed }
  | Lexer.STRING s ->
      ignore (next p);
      EString s
  | Lexer.UNDERSCORE ->
      ignore (next p);
      EDontCare
  | Lexer.IDENT "true" ->
      ignore (next p);
      EBool true
  | Lexer.IDENT "false" ->
      ignore (next p);
      EBool false
  | Lexer.IDENT "default" ->
      ignore (next p);
      EDefault
  | Lexer.IDENT name ->
      ignore (next p);
      EVar name
  | Lexer.LPAREN -> (
      ignore (next p);
      (* cast or parenthesized expression *)
      match peek_tok p with
      | Lexer.IDENT ("bit" | "int" | "bool" | "varbit") ->
          let t = parse_type p in
          expect p Lexer.RPAREN;
          ECast (t, parse_unary p)
      | _ ->
          let e = parse_expr p in
          expect p Lexer.RPAREN;
          e)
  | Lexer.LBRACE ->
      ignore (next p);
      let es = ref [] in
      if peek_tok p <> Lexer.RBRACE then begin
        es := [ parse_expr p ];
        while accept p Lexer.COMMA do
          if peek_tok p <> Lexer.RBRACE then es := parse_expr p :: !es
        done
      end;
      expect p Lexer.RBRACE;
      EList (List.rev !es)
  | got -> err p ("expected an expression, found " ^ Lexer.show_token got)

(* select patterns allow masks and ranges at the top level *)
let rec parse_select_pattern p =
  let e =
    match peek_tok p with
    | Lexer.LPAREN ->
        ignore (next p);
        let es = ref [ parse_select_pattern_atom p ] in
        while accept p Lexer.COMMA do
          es := parse_select_pattern_atom p :: !es
        done;
        expect p Lexer.RPAREN;
        (match List.rev !es with [ e ] -> e | es -> EList es)
    | _ -> parse_select_pattern_atom p
  in
  e

and parse_select_pattern_atom p =
  let e = parse_expr p in
  if accept p Lexer.AMP3 then EMask (e, parse_expr p)
  else if accept p Lexer.DOTDOT then ERange (e, parse_expr p)
  else e

(* ------------------------------------------------------------------ *)
(* Annotations *)

let parse_anno p =
  expect p Lexer.AT;
  let name = expect_ident p in
  if accept p Lexer.LPAREN then begin
    let args = ref [] in
    if peek_tok p <> Lexer.RPAREN then begin
      let parse_arg p =
        match (peek_tok p, peek2_tok p) with
        | Lexer.STRING s, _ ->
            ignore (next p);
            AnnoString s
        | Lexer.IDENT k, Lexer.ASSIGN ->
            ignore (next p);
            ignore (next p);
            AnnoKv (k, parse_expr p)
        | _ -> AnnoExpr (parse_expr p)
      in
      args := [ parse_arg p ];
      while accept p Lexer.COMMA do
        args := parse_arg p :: !args
      done
    end;
    expect p Lexer.RPAREN;
    { an_name = name; an_args = List.rev !args }
  end
  else { an_name = name; an_args = [] }

let parse_annos p =
  let rec go acc = if peek_tok p = Lexer.AT then go (parse_anno p :: acc) else List.rev acc in
  go []

(* ------------------------------------------------------------------ *)
(* Statements *)

let is_decl_start p =
  (* a statement starting with [TYPE IDENT] is a variable declaration *)
  match (peek_tok p, peek2_tok p) with
  | Lexer.IDENT ("bit" | "int" | "varbit"), Lexer.LANGLE -> true
  | Lexer.IDENT "bool", Lexer.IDENT _ -> true
  | Lexer.IDENT _, Lexer.IDENT _ -> true
  | _ -> false

let rec parse_stmt p =
  let pos = cur_pos p in
  let _annos = parse_annos p in
  match peek_tok p with
  | Lexer.LBRACE -> SBlock (parse_block p)
  | Lexer.SEMI ->
      ignore (next p);
      SEmpty
  | Lexer.IDENT "if" ->
      ignore (next p);
      expect p Lexer.LPAREN;
      let c = parse_expr p in
      expect p Lexer.RPAREN;
      let then_ = parse_stmt_as_block p in
      let else_ =
        if peek_tok p = Lexer.IDENT "else" then begin
          ignore (next p);
          parse_stmt_as_block p
        end
        else []
      in
      SIf (pos, c, then_, else_)
  | Lexer.IDENT "switch" ->
      ignore (next p);
      expect p Lexer.LPAREN;
      let e = parse_expr p in
      expect p Lexer.RPAREN;
      expect p Lexer.LBRACE;
      let cases = ref [] in
      while peek_tok p <> Lexer.RBRACE do
        let labels = ref [] in
        let rec collect () =
          (match next p with
          | Lexer.IDENT l, _ -> labels := l :: !labels
          | Lexer.UNDERSCORE, _ -> labels := "default" :: !labels
          | got, pos -> raise (Error ("bad switch label " ^ Lexer.show_token got, pos)));
          expect p Lexer.COLON;
          match peek_tok p with
          | Lexer.IDENT _ when peek2_tok p = Lexer.COLON -> collect ()
          | Lexer.UNDERSCORE -> collect ()
          | _ -> ()
        in
        collect ();
        let body = if peek_tok p = Lexer.LBRACE then Some (parse_block p) else None in
        cases := { sw_labels = List.rev !labels; sw_body = body } :: !cases
      done;
      expect p Lexer.RBRACE;
      SSwitch (pos, e, List.rev !cases)
  | Lexer.IDENT "return" ->
      ignore (next p);
      if accept p Lexer.SEMI then SReturn (pos, None)
      else begin
        let e = parse_expr p in
        expect p Lexer.SEMI;
        SReturn (pos, Some e)
      end
  | Lexer.IDENT "exit" ->
      ignore (next p);
      expect p Lexer.SEMI;
      SExit pos
  | Lexer.IDENT "const" ->
      ignore (next p);
      let t = parse_type p in
      let name = expect_ident p in
      expect p Lexer.ASSIGN;
      let e = parse_expr p in
      expect p Lexer.SEMI;
      SConstDecl (pos, t, name, e)
  | _ when is_decl_start p ->
      let t = parse_type p in
      let name = expect_ident p in
      let init =
        if accept p Lexer.ASSIGN then Some (parse_expr p) else None
      in
      expect p Lexer.SEMI;
      SVarDecl (pos, t, name, init)
  | _ ->
      (* assignment or call *)
      let lhs = parse_postfix p in
      if accept p Lexer.ASSIGN then begin
        let rhs = parse_expr p in
        expect p Lexer.SEMI;
        SAssign (pos, lhs, rhs)
      end
      else begin
        expect p Lexer.SEMI;
        match lhs with
        | ECall (f, args) -> SCall (pos, f, args)
        | _ -> err p "expected an assignment or a call"
      end

and parse_stmt_as_block p =
  match parse_stmt p with SBlock b -> b | s -> [ s ]

and parse_block p =
  expect p Lexer.LBRACE;
  let stmts = ref [] in
  while peek_tok p <> Lexer.RBRACE do
    stmts := parse_stmt p :: !stmts
  done;
  expect p Lexer.RBRACE;
  List.rev !stmts

(* ------------------------------------------------------------------ *)
(* Declarations *)

let parse_params p =
  expect p Lexer.LPAREN;
  let params = ref [] in
  if peek_tok p <> Lexer.RPAREN then begin
    let parse_param p =
      let _annos = parse_annos p in
      let dir =
        match peek_tok p with
        | Lexer.IDENT "in" when (match peek2_tok p with Lexer.IDENT _ -> true | _ -> false) ->
            ignore (next p);
            DirIn
        | Lexer.IDENT "out" ->
            ignore (next p);
            DirOut
        | Lexer.IDENT "inout" ->
            ignore (next p);
            DirInOut
        | _ -> DirNone
      in
      let t = parse_type p in
      let name = expect_ident p in
      { par_dir = dir; par_typ = t; par_name = name }
    in
    params := [ parse_param p ];
    while accept p Lexer.COMMA do
      params := parse_param p :: !params
    done
  end;
  expect p Lexer.RPAREN;
  List.rev !params

let parse_fields p =
  expect p Lexer.LBRACE;
  let fields = ref [] in
  while peek_tok p <> Lexer.RBRACE do
    let annos = parse_annos p in
    let t = parse_type p in
    let name = expect_ident p in
    expect p Lexer.SEMI;
    fields := { f_name = name; f_typ = t; f_annos = annos } :: !fields
  done;
  expect p Lexer.RBRACE;
  List.rev !fields

let parse_action p =
  (* "action" already consumed; annotations passed in *)
  fun annos ->
    let name = expect_ident p in
    let params = parse_params p in
    let body = parse_block p in
    { act_name = name; act_params = params; act_body = body; act_annos = annos }

let parse_table p annos =
  let name = expect_ident p in
  expect p Lexer.LBRACE;
  let keys = ref [] in
  let actions = ref [] in
  let default = ref None in
  let entries = ref [] in
  let size = ref None in
  let props = ref [] in
  while peek_tok p <> Lexer.RBRACE do
    match next p with
    | Lexer.IDENT "key", _ ->
        expect p Lexer.ASSIGN;
        expect p Lexer.LBRACE;
        while peek_tok p <> Lexer.RBRACE do
          let e = parse_expr p in
          expect p Lexer.COLON;
          let kind = expect_ident p in
          let annos = parse_annos p in
          expect p Lexer.SEMI;
          keys := { tk_expr = e; tk_kind = kind; tk_annos = annos } :: !keys
        done;
        expect p Lexer.RBRACE;
        ignore (accept p Lexer.SEMI)
    | Lexer.IDENT "actions", _ ->
        expect p Lexer.ASSIGN;
        expect p Lexer.LBRACE;
        while peek_tok p <> Lexer.RBRACE do
          let annos = parse_annos p in
          (* NoAction or qualified .NoAction *)
          ignore (accept p Lexer.DOT);
          let a = expect_ident p in
          (* allow and ignore parameter bindings like a(x) in action lists *)
          if accept p Lexer.LPAREN then begin
            let rec skip depth =
              match fst (next p) with
              | Lexer.LPAREN -> skip (depth + 1)
              | Lexer.RPAREN -> if depth > 0 then skip (depth - 1)
              | Lexer.EOF -> err p "unterminated action parameter list"
              | _ -> skip depth
            in
            skip 0
          end;
          expect p Lexer.SEMI;
          actions := (a, annos) :: !actions
        done;
        expect p Lexer.RBRACE;
        ignore (accept p Lexer.SEMI)
    | Lexer.IDENT ("default_action" | "const_default_action"), _ ->
        expect p Lexer.ASSIGN;
        ignore (accept p Lexer.DOT);
        let a = expect_ident p in
        let args =
          if accept p Lexer.LPAREN then begin
            let args = parse_args p in
            expect p Lexer.RPAREN;
            args
          end
          else []
        in
        expect p Lexer.SEMI;
        default := Some (a, args)
    | Lexer.IDENT "const", _ when peek_tok p = Lexer.IDENT "entries" ->
        ignore (next p);
        expect p Lexer.ASSIGN;
        expect p Lexer.LBRACE;
        while peek_tok p <> Lexer.RBRACE do
          let annos = parse_annos p in
          let prio =
            match find_anno "priority" annos with
            | Some a -> anno_int a
            | None -> None
          in
          let ks =
            if accept p Lexer.LPAREN then begin
              let ks = ref [ parse_select_pattern_atom p ] in
              while accept p Lexer.COMMA do
                ks := parse_select_pattern_atom p :: !ks
              done;
              expect p Lexer.RPAREN;
              List.rev !ks
            end
            else [ parse_select_pattern_atom p ]
          in
          expect p Lexer.COLON;
          let a = expect_ident p in
          let args =
            if accept p Lexer.LPAREN then begin
              let args = parse_args p in
              expect p Lexer.RPAREN;
              args
            end
            else []
          in
          expect p Lexer.SEMI;
          entries := { te_keys = ks; te_action = a; te_args = args; te_priority = prio } :: !entries
        done;
        expect p Lexer.RBRACE;
        ignore (accept p Lexer.SEMI)
    | Lexer.IDENT "const", _ when peek_tok p = Lexer.IDENT "default_action" ->
        ignore (next p);
        expect p Lexer.ASSIGN;
        ignore (accept p Lexer.DOT);
        let a = expect_ident p in
        let args =
          if accept p Lexer.LPAREN then begin
            let args = parse_args p in
            expect p Lexer.RPAREN;
            args
          end
          else []
        in
        expect p Lexer.SEMI;
        default := Some (a, args)
    | Lexer.IDENT "size", _ ->
        expect p Lexer.ASSIGN;
        size := Some (parse_const_int p);
        expect p Lexer.SEMI
    | Lexer.IDENT prop, _ ->
        expect p Lexer.ASSIGN;
        let e = parse_expr p in
        expect p Lexer.SEMI;
        props := (prop, e) :: !props
    | got, pos -> raise (Error ("unexpected table property " ^ Lexer.show_token got, pos))
  done;
  expect p Lexer.RBRACE;
  {
    tbl_name = name;
    tbl_keys = List.rev !keys;
    tbl_actions = List.rev !actions;
    tbl_default = !default;
    tbl_entries = List.rev !entries;
    tbl_size = !size;
    tbl_annos = annos;
    tbl_props = List.rev !props;
  }

let parse_locals p =
  (* local declarations inside parsers/controls, until "state"/"apply" *)
  let locals = ref [] in
  let continue = ref true in
  while !continue do
    let annos = parse_annos p in
    match peek_tok p with
    | Lexer.IDENT "state" | Lexer.IDENT "apply" | Lexer.RBRACE ->
        if annos <> [] then err p "dangling annotation";
        continue := false
    | Lexer.IDENT "action" ->
        ignore (next p);
        locals := LAction (parse_action p annos) :: !locals
    | Lexer.IDENT "table" ->
        ignore (next p);
        locals := LTable (parse_table p annos) :: !locals
    | Lexer.IDENT "const" ->
        ignore (next p);
        let t = parse_type p in
        let name = expect_ident p in
        expect p Lexer.ASSIGN;
        let e = parse_expr p in
        expect p Lexer.SEMI;
        locals := LConst (t, name, e) :: !locals
    | _ -> (
        (* variable declaration or instantiation *)
        let t = parse_type p in
        match peek_tok p with
        | Lexer.LPAREN ->
            (* instantiation: register<bit<32>>(1024) name; *)
            ignore (next p);
            let args = parse_args p in
            expect p Lexer.RPAREN;
            let name = expect_ident p in
            expect p Lexer.SEMI;
            locals := LInstantiation (t, args, name) :: !locals
        | _ ->
            let name = expect_ident p in
            let init = if accept p Lexer.ASSIGN then Some (parse_expr p) else None in
            expect p Lexer.SEMI;
            locals := LVar (t, name, init) :: !locals)
  done;
  List.rev !locals

let parse_parser_states p =
  let states = ref [] in
  while peek_tok p = Lexer.IDENT "state" do
    ignore (next p);
    let name = expect_ident p in
    expect p Lexer.LBRACE;
    let stmts = ref [] in
    while peek_tok p <> Lexer.RBRACE && peek_tok p <> Lexer.IDENT "transition" do
      stmts := parse_stmt p :: !stmts
    done;
    let trans =
      if accept p (Lexer.IDENT "transition") then begin
        if peek_tok p = Lexer.IDENT "select" then begin
          ignore (next p);
          expect p Lexer.LPAREN;
          let keys = ref [ parse_expr p ] in
          while accept p Lexer.COMMA do
            keys := parse_expr p :: !keys
          done;
          expect p Lexer.RPAREN;
          expect p Lexer.LBRACE;
          let cases = ref [] in
          while peek_tok p <> Lexer.RBRACE do
            let pat = parse_select_pattern p in
            expect p Lexer.COLON;
            let nxt = expect_ident p in
            expect p Lexer.SEMI;
            let keys = match pat with EList es -> es | e -> [ e ] in
            cases := { sel_keys = keys; sel_next = nxt } :: !cases
          done;
          expect p Lexer.RBRACE;
          TrSelect (List.rev !keys, List.rev !cases)
        end
        else begin
          let nxt = expect_ident p in
          expect p Lexer.SEMI;
          TrDirect nxt
        end
      end
      else TrDirect "reject"
    in
    expect p Lexer.RBRACE;
    states := { st_name = name; st_stmts = List.rev !stmts; st_trans = trans } :: !states
  done;
  List.rev !states

let rec parse_decl p annos =
  match peek_tok p with
  | Lexer.IDENT "header" ->
      ignore (next p);
      let name = expect_ident p in
      let fields = parse_fields p in
      ignore (accept p Lexer.SEMI);
      Some (DHeader (name, fields, annos))
  | Lexer.IDENT "header_union" ->
      ignore (next p);
      let name = expect_ident p in
      let fields = parse_fields p in
      ignore (accept p Lexer.SEMI);
      Some (DHeaderUnion (name, fields, annos))
  | Lexer.IDENT "struct" ->
      ignore (next p);
      let name = expect_ident p in
      let fields = parse_fields p in
      ignore (accept p Lexer.SEMI);
      Some (DStruct (name, fields, annos))
  | Lexer.IDENT "typedef" ->
      ignore (next p);
      let t = parse_type p in
      let name = expect_ident p in
      expect p Lexer.SEMI;
      Some (DTypedef (t, name))
  | Lexer.IDENT "enum" ->
      ignore (next p);
      if peek_tok p = Lexer.IDENT "bit" then begin
        let t = parse_type p in
        let name = expect_ident p in
        expect p Lexer.LBRACE;
        let members = ref [] in
        while peek_tok p <> Lexer.RBRACE do
          let m = expect_ident p in
          expect p Lexer.ASSIGN;
          let e = parse_expr p in
          ignore (accept p Lexer.COMMA);
          members := (m, e) :: !members
        done;
        expect p Lexer.RBRACE;
        Some (DSerEnum (t, name, List.rev !members))
      end
      else begin
        let name = expect_ident p in
        expect p Lexer.LBRACE;
        let members = ref [] in
        while peek_tok p <> Lexer.RBRACE do
          members := expect_ident p :: !members;
          ignore (accept p Lexer.COMMA)
        done;
        expect p Lexer.RBRACE;
        Some (DEnum (name, List.rev !members))
      end
  | Lexer.IDENT "error" ->
      ignore (next p);
      expect p Lexer.LBRACE;
      let members = ref [] in
      while peek_tok p <> Lexer.RBRACE do
        members := expect_ident p :: !members;
        ignore (accept p Lexer.COMMA)
      done;
      expect p Lexer.RBRACE;
      Some (DError (List.rev !members))
  | Lexer.IDENT "match_kind" ->
      ignore (next p);
      expect p Lexer.LBRACE;
      let members = ref [] in
      while peek_tok p <> Lexer.RBRACE do
        members := expect_ident p :: !members;
        ignore (accept p Lexer.COMMA)
      done;
      expect p Lexer.RBRACE;
      ignore (accept p Lexer.SEMI);
      Some (DMatchKind (List.rev !members))
  | Lexer.IDENT "const" ->
      ignore (next p);
      let t = parse_type p in
      let name = expect_ident p in
      expect p Lexer.ASSIGN;
      let e = parse_expr p in
      expect p Lexer.SEMI;
      Some (DConst (t, name, e))
  | Lexer.IDENT "action" ->
      ignore (next p);
      Some (DAction (parse_action p annos))
  | Lexer.IDENT "parser" ->
      ignore (next p);
      let name = expect_ident p in
      skip_type_params p;
      let params = parse_params p in
      if accept p Lexer.SEMI then Some (DParserType (name, params))
      else begin
        expect p Lexer.LBRACE;
        let locals = parse_locals p in
        let states = parse_parser_states p in
        expect p Lexer.RBRACE;
        Some (DParser ({ p_name = name; p_params = params; p_locals = locals; p_states = states }, annos))
      end
  | Lexer.IDENT "control" ->
      ignore (next p);
      let name = expect_ident p in
      skip_type_params p;
      let params = parse_params p in
      if accept p Lexer.SEMI then Some (DControlType (name, params))
      else begin
        expect p Lexer.LBRACE;
        let locals = parse_locals p in
        let body =
          if peek_tok p = Lexer.IDENT "apply" then begin
            ignore (next p);
            parse_block p
          end
          else []
        in
        expect p Lexer.RBRACE;
        Some (DControl ({ c_name = name; c_params = params; c_locals = locals; c_body = body }, annos))
      end
  | Lexer.IDENT "extern" ->
      ignore (next p);
      let name =
        match peek_tok p with
        | Lexer.IDENT n -> n
        | _ -> "anonymous"
      in
      (* permissive: skip to matching close *)
      let rec skim depth =
        match fst (next p) with
        | Lexer.LBRACE -> skim (depth + 1)
        | Lexer.RBRACE -> if depth > 1 then skim (depth - 1)
        | Lexer.SEMI when depth = 0 -> ()
        | Lexer.EOF -> err p "unterminated extern declaration"
        | _ -> skim depth
      in
      skim 0;
      Some (DExtern (name, []))
  | Lexer.IDENT "package" ->
      ignore (next p);
      let name = expect_ident p in
      skip_type_params p;
      let params = parse_params p in
      expect p Lexer.SEMI;
      Some (DPackage (name, params))
  | Lexer.EOF -> None
  | Lexer.IDENT _ ->
      (* package / extern instantiation: Type(args) name; *)
      let t = parse_type p in
      let tname = match t with TName n | TSpec (n, _) -> n | _ -> err p "bad instantiation" in
      expect p Lexer.LPAREN;
      let args = parse_args p in
      expect p Lexer.RPAREN;
      let iname = expect_ident p in
      expect p Lexer.SEMI;
      Some (DInstantiation (tname, args, iname, annos))
  | got -> err p ("expected a declaration, found " ^ Lexer.show_token got)

and skip_type_params p =
  if peek_tok p = Lexer.LANGLE then begin
    let rec go depth =
      match fst (next p) with
      | Lexer.LANGLE -> go (depth + 1)
      | Lexer.RANGLE -> if depth > 1 then go (depth - 1)
      | Lexer.EOF -> err p "unterminated type parameters"
      | _ -> go depth
    in
    go 0
  end

let parse_program src =
  let p = { lx = Lexer.create src } in
  let decls = ref [] in
  let rec go () =
    let annos = parse_annos p in
    match parse_decl p annos with
    | Some d ->
        decls := d :: !decls;
        go ()
    | None -> ()
  in
  go ();
  List.rev !decls

let parse_expr_string src =
  let p = { lx = Lexer.create src } in
  parse_expr p
