(* Hand-written lexer for the P4-16 subset. *)

type token =
  | IDENT of string
  | NUMBER of { iv : int; width : int option; signed : bool; base : int }
  | STRING of string
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LANGLE (* < *)
  | RANGLE (* > *)
  | SEMI
  | COLON
  | COMMA
  | DOT
  | ASSIGN (* = *)
  | PLUS
  | PLUS_SAT (* |+| *)
  | MINUS
  | MINUS_SAT (* |-| *)
  | STAR
  | SLASH
  | PERCENT
  | AMP (* & *)
  | AMP_AMP (* && *)
  | AMP3 (* &&& *)
  | PIPE (* | *)
  | PIPE_PIPE (* || *)
  | CARET (* ^ *)
  | TILDE (* ~ *)
  | BANG (* ! *)
  | EQ_EQ
  | NEQ
  | LE
  | GE
  | SHL (* << *)
  (* there is no SHR token: '>' is always lexed as RANGLE so nested
     type arguments like bit<bit<8>> work; the expression parser
     reassembles adjacent RANGLEs into a right shift *)
  | PLUSPLUS (* ++ *)
  | QUESTION
  | AT (* @ *)
  | DOTDOT (* .. *)
  | UNDERSCORE
  | EOF

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable peeked : (token * Ast.pos) option;
  mutable peeked2 : (token * Ast.pos) option;
}

exception Error of string * Ast.pos

let create src = { src; pos = 0; line = 1; col = 1; peeked = None; peeked2 = None }

let error lx msg = raise (Error (msg, { line = lx.line; col = lx.col }))

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let peek_char2 lx =
  if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

let advance lx =
  (match peek_char lx with
  | Some '\n' ->
      lx.line <- lx.line + 1;
      lx.col <- 1
  | Some _ -> lx.col <- lx.col + 1
  | None -> ());
  lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance lx;
      skip_ws lx
  | Some '/' when peek_char2 lx = Some '/' ->
      while peek_char lx <> None && peek_char lx <> Some '\n' do
        advance lx
      done;
      skip_ws lx
  | Some '/' when peek_char2 lx = Some '*' ->
      advance lx;
      advance lx;
      let rec go () =
        match (peek_char lx, peek_char2 lx) with
        | Some '*', Some '/' ->
            advance lx;
            advance lx
        | Some _, _ ->
            advance lx;
            go ()
        | None, _ -> error lx "unterminated comment"
      in
      go ();
      skip_ws lx
  | Some '#' ->
      (* preprocessor lines are ignored *)
      while peek_char lx <> None && peek_char lx <> Some '\n' do
        advance lx
      done;
      skip_ws lx
  | _ -> ()

(* a literal that is malformed ("0x") or does not fit an OCaml int is
   rejected at its own position *)
let int_literal pos digits =
  match int_of_string_opt digits with
  | Some n -> n
  | None -> raise (Error ("invalid or too wide integer literal " ^ digits, pos))

let lex_number lx pos =
  let start = lx.pos in
  while (match peek_char lx with Some c -> is_digit c | None -> false) do
    advance lx
  done;
  let first = String.sub lx.src start (lx.pos - start) in
  (* width prefix: 8w255, 4s7 *)
  match peek_char lx with
  | Some ('w' | 's') when first <> "" ->
      let signed = peek_char lx = Some 's' in
      advance lx;
      let width = int_literal pos first in
      let base, digits_start =
        match (peek_char lx, peek_char2 lx) with
        | Some '0', Some ('x' | 'X') ->
            advance lx;
            advance lx;
            (16, lx.pos)
        | Some '0', Some ('b' | 'B') ->
            advance lx;
            advance lx;
            (2, lx.pos)
        | _ -> (10, lx.pos)
      in
      while
        match peek_char lx with
        | Some c -> is_hex c || c = '_'
        | None -> false
      do
        advance lx
      done;
      let digits = String.sub lx.src digits_start (lx.pos - digits_start) in
      let digits = String.concat "" (String.split_on_char '_' digits) in
      let iv =
        match base with
        | 16 -> int_literal pos ("0x" ^ digits)
        | 2 -> int_literal pos ("0b" ^ digits)
        | _ -> int_literal pos digits
      in
      NUMBER { iv; width = Some width; signed; base }
  | _ ->
      if first = "0" && (match peek_char lx with Some ('x' | 'X' | 'b' | 'B') -> true | _ -> false)
      then begin
        let base = match peek_char lx with Some ('x' | 'X') -> 16 | _ -> 2 in
        advance lx;
        let ds = lx.pos in
        while
          match peek_char lx with Some c -> is_hex c || c = '_' | None -> false
        do
          advance lx
        done;
        let digits = String.sub lx.src ds (lx.pos - ds) in
        let digits = String.concat "" (String.split_on_char '_' digits) in
        let iv =
          int_literal pos ((if base = 16 then "0x" else "0b") ^ digits)
        in
        NUMBER { iv; width = None; signed = false; base }
      end
      else NUMBER { iv = int_literal pos first; width = None; signed = false; base = 10 }

let raw_next lx =
  skip_ws lx;
  let pos = { Ast.line = lx.line; col = lx.col } in
  let tok =
    match peek_char lx with
    | None -> EOF
    | Some c when is_digit c -> lex_number lx pos
    | Some c when is_ident_start c ->
        let start = lx.pos in
        while (match peek_char lx with Some c -> is_ident_char c | None -> false) do
          advance lx
        done;
        let s = String.sub lx.src start (lx.pos - start) in
        if s = "_" then UNDERSCORE else IDENT s
    | Some '"' ->
        advance lx;
        let b = Buffer.create 16 in
        let rec go () =
          match peek_char lx with
          | Some '"' -> advance lx
          | Some '\\' ->
              advance lx;
              (match peek_char lx with
              | Some c ->
                  Buffer.add_char b c;
                  advance lx
              | None -> error lx "unterminated string");
              go ()
          | Some c ->
              Buffer.add_char b c;
              advance lx;
              go ()
          | None -> error lx "unterminated string"
        in
        go ();
        STRING (Buffer.contents b)
    | Some c ->
        advance lx;
        let two next tok1 tok2 =
          if peek_char lx = Some next then begin
            advance lx;
            tok2
          end
          else tok1
        in
        (match c with
        | '(' -> LPAREN
        | ')' -> RPAREN
        | '{' -> LBRACE
        | '}' -> RBRACE
        | '[' -> LBRACKET
        | ']' -> RBRACKET
        | ';' -> SEMI
        | ':' -> COLON
        | ',' -> COMMA
        | '.' -> two '.' DOT DOTDOT
        | '?' -> QUESTION
        | '@' -> AT
        | '~' -> TILDE
        | '^' -> CARET
        | '*' -> STAR
        | '/' -> SLASH
        | '%' -> PERCENT
        | '+' -> two '+' PLUS PLUSPLUS
        | '-' -> MINUS
        | '=' -> two '=' ASSIGN EQ_EQ
        | '!' -> two '=' BANG NEQ
        | '<' ->
            if peek_char lx = Some '=' then (advance lx; LE)
            else if peek_char lx = Some '<' then (advance lx; SHL)
            else LANGLE
        | '>' ->
            (* '>>' is never lexed as one token: nested type arguments
               like bit<bit<8>> need the two RANGLEs.  The expression
               parser reassembles shifts. *)
            if peek_char lx = Some '=' then (advance lx; GE) else RANGLE
        | '&' ->
            if peek_char lx = Some '&' then begin
              advance lx;
              if peek_char lx = Some '&' then (advance lx; AMP3) else AMP_AMP
            end
            else AMP
        | '|' ->
            if peek_char lx = Some '|' then (advance lx; PIPE_PIPE)
            else if peek_char lx = Some '+' && peek_char2 lx = Some '|' then begin
              advance lx; advance lx; PLUS_SAT
            end
            else if peek_char lx = Some '-' && peek_char2 lx = Some '|' then begin
              advance lx; advance lx; MINUS_SAT
            end
            else PIPE
        | c -> error lx (Printf.sprintf "unexpected character %C" c))
  in
  (tok, pos)

let next lx =
  match lx.peeked with
  | Some t ->
      lx.peeked <- lx.peeked2;
      lx.peeked2 <- None;
      t
  | None -> raw_next lx

let peek lx =
  match lx.peeked with
  | Some t -> t
  | None ->
      let t = raw_next lx in
      lx.peeked <- Some t;
      t

let peek2 lx =
  ignore (peek lx);
  match lx.peeked2 with
  | Some t -> t
  | None ->
      let t = raw_next lx in
      lx.peeked2 <- Some t;
      t

let show_token = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | NUMBER { iv; _ } -> Printf.sprintf "number %d" iv
  | STRING s -> Printf.sprintf "string %S" s
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LANGLE -> "'<'"
  | RANGLE -> "'>'"
  | SEMI -> "';'"
  | COLON -> "':'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | ASSIGN -> "'='"
  | PLUS -> "'+'"
  | PLUS_SAT -> "'|+|'"
  | MINUS -> "'-'"
  | MINUS_SAT -> "'|-|'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | AMP -> "'&'"
  | AMP_AMP -> "'&&'"
  | AMP3 -> "'&&&'"
  | PIPE -> "'|'"
  | PIPE_PIPE -> "'||'"
  | CARET -> "'^'"
  | TILDE -> "'~'"
  | BANG -> "'!'"
  | EQ_EQ -> "'=='"
  | NEQ -> "'!='"
  | LE -> "'<='"
  | GE -> "'>='"
  | SHL -> "'<<'"
  | PLUSPLUS -> "'++'"
  | QUESTION -> "'?'"
  | AT -> "'@'"
  | DOTDOT -> "'..'"
  | UNDERSCORE -> "'_'"
  | EOF -> "end of input"
