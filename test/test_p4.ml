(* Frontend tests: lexer, parser, pretty-printer round-trip, typing,
   and mid-end passes, exercised on paper-style programs. *)

open P4

let fig1a =
  {|
header ethernet_t {
  bit<48> dst;
  bit<48> src;
  bit<16> type;
}

struct headers_t { ethernet_t eth; }
struct meta_t { bit<9> output_port; }

parser MyParser(packet_in pkt, out headers_t hdr, inout meta_t meta,
                inout standard_metadata_t sm) {
  state start {
    pkt.extract(hdr.eth);
    transition accept;
  }
}

control MyIngress(inout headers_t h, inout meta_t meta,
                  inout standard_metadata_t sm) {
  action noop() { }
  action set_out(bit<9> port) {
    meta.output_port = port;
  }
  table forward_table {
    key = { h.eth.type : exact @name("type"); }
    actions = { noop; set_out; }
    default_action = noop();
  }
  apply {
    h.eth.type = 0xBEEF;
    forward_table.apply();
    sm.egress_spec = meta.output_port;
  }
}
|}

let fig1b =
  {|
header ethernet_t {
  bit<48> dst;
  bit<48> src;
  bit<16> type;
}

struct headers_t { ethernet_t eth; }
struct meta_t { bit<1> checksum_err; }

parser MyParser(packet_in pkt, out headers_t hdr, inout meta_t meta,
                inout standard_metadata_t sm) {
  state start {
    pkt.extract(hdr.eth);
    transition accept;
  }
}

control MyVerify(inout headers_t hdr, inout meta_t meta) {
  apply {
    verify_checksum(hdr.eth.isValid(), {hdr.eth.dst, hdr.eth.src},
                    hdr.eth.type, HashAlgorithm.csum16);
  }
}

control MyIngress(inout headers_t hdr, inout meta_t meta,
                  inout standard_metadata_t sm) {
  apply {
    if (meta.checksum_err == 1) {
      mark_to_drop(sm);
    }
  }
}
|}

let parses_ok name src () =
  match Parser.parse_program src with
  | _decls -> ()
  | exception Parser.Error (msg, pos) ->
      Alcotest.failf "%s: parse error at %d:%d: %s" name pos.Ast.line pos.Ast.col msg
  | exception Lexer.Error (msg, pos) ->
      Alcotest.failf "%s: lex error at %d:%d: %s" name pos.Ast.line pos.Ast.col msg

let test_fig1a_shape () =
  let prog = Parser.parse_program fig1a in
  Alcotest.(check int) "decl count" 5 (List.length prog);
  let tbl =
    List.find_map
      (function
        | Ast.DControl (cd, _) ->
            List.find_map (function Ast.LTable t -> Some t | _ -> None) cd.c_locals
        | _ -> None)
      prog
    |> Option.get
  in
  Alcotest.(check string) "table name" "forward_table" tbl.tbl_name;
  Alcotest.(check int) "keys" 1 (List.length tbl.tbl_keys);
  Alcotest.(check (list string)) "actions" [ "noop"; "set_out" ]
    (List.map fst tbl.tbl_actions);
  let key = List.hd tbl.tbl_keys in
  Alcotest.(check string) "match kind" "exact" key.tk_kind;
  Alcotest.(check bool) "name anno" true (Ast.has_anno "name" key.tk_annos)

let test_fig1b_shape () =
  let prog = Parser.parse_program fig1b in
  let verify =
    List.find_map
      (function
        | Ast.DControl (cd, _) when cd.c_name = "MyVerify" -> Some cd
        | _ -> None)
      prog
    |> Option.get
  in
  match verify.c_body with
  | [ Ast.SCall (_, EVar "verify_checksum", args) ] ->
      Alcotest.(check int) "args" 4 (List.length args)
  | _ -> Alcotest.fail "unexpected MyVerify body"

let test_roundtrip () =
  let check_rt name src =
    let p1 = Parser.parse_program src in
    let printed = Pretty.program_to_string p1 in
    let p2 =
      try Parser.parse_program printed
      with Parser.Error (msg, pos) ->
        Alcotest.failf "%s: reparse error at %d:%d: %s\n%s" name pos.Ast.line pos.Ast.col msg
          printed
    in
    let printed2 = Pretty.program_to_string p2 in
    Alcotest.(check string) (name ^ " round trip") printed printed2
  in
  check_rt "fig1a" fig1a;
  check_rt "fig1b" fig1b

let test_expr_parsing () =
  let e = Parser.parse_expr_string "1 + 2 * 3" in
  Alcotest.(check int) "precedence" 7 (Option.get (Passes.eval_const [] e));
  let e = Parser.parse_expr_string "(1 + 2) * 3" in
  Alcotest.(check int) "parens" 9 (Option.get (Passes.eval_const [] e));
  let e = Parser.parse_expr_string "16w0xBEEF" in
  (match e with
  | Ast.EInt { iv; width = Some 16; _ } -> Alcotest.(check int) "sized hex" 0xBEEF iv
  | _ -> Alcotest.fail "expected sized literal");
  let e = Parser.parse_expr_string "x >> 2" in
  (match e with
  | Ast.EBinop (Ast.Shr, Ast.EVar "x", _) -> ()
  | _ -> Alcotest.fail "expected right shift");
  let e = Parser.parse_expr_string "a ++ b" in
  (match e with
  | Ast.EBinop (Ast.Concat, _, _) -> ()
  | _ -> Alcotest.fail "expected concat");
  let e = Parser.parse_expr_string "hdr.eth.isValid() && x < 5" in
  match e with
  | Ast.EBinop (Ast.LAnd, Ast.ECall (Ast.EMember (_, "isValid"), []), Ast.EBinop (Ast.Lt, _, _))
    -> ()
  | _ -> Alcotest.fail "expected && of isValid and comparison"

let test_typeargs () =
  let e = Parser.parse_expr_string "pkt.lookahead<bit<16>>()" in
  match e with
  | Ast.ECall (Ast.EMember (_, "lookahead"), [ Ast.ETypeArg (Ast.TBit 16) ]) -> ()
  | _ -> Alcotest.fail "expected lookahead with type arg"

let test_select_parsing () =
  let src =
    {|
parser P(packet_in pkt, out H hdr) {
  state start {
    pkt.extract(hdr.eth);
    transition select(hdr.eth.type, hdr.eth.src) {
      (0x0800, _) : ipv4;
      (0x8100 &&& 0xEFFF, _) : vlan;
      (16w5 .. 16w10, _) : weird;
      default : accept;
    }
  }
  state ipv4 { transition accept; }
  state vlan { transition accept; }
  state weird { transition accept; }
}
|}
  in
  let prog = Parser.parse_program src in
  let p =
    List.find_map (function Ast.DParser (pd, _) -> Some pd | _ -> None) prog |> Option.get
  in
  Alcotest.(check int) "states" 4 (List.length p.p_states);
  let start = List.find (fun s -> s.Ast.st_name = "start") p.p_states in
  match start.st_trans with
  | TrSelect ([ _; _ ], cases) ->
      Alcotest.(check int) "cases" 4 (List.length cases);
      let c2 = List.nth cases 1 in
      (match c2.sel_keys with
      | [ Ast.EMask _; Ast.EDontCare ] -> ()
      | _ -> Alcotest.fail "expected mask pattern");
      let c3 = List.nth cases 2 in
      (match c3.sel_keys with
      | [ Ast.ERange _; Ast.EDontCare ] -> ()
      | _ -> Alcotest.fail "expected range pattern")
  | _ -> Alcotest.fail "expected select transition"

let test_entries_parsing () =
  let src =
    {|
control C(inout H h) {
  action a(bit<9> p) { }
  action b() { }
  table t {
    key = { h.f : ternary; h.g : exact; }
    actions = { a; b; }
    const entries = {
      (0x1 &&& 0xF, 10) : a(1);
      @priority(3) (_, 11) : b();
    }
    default_action = b();
    size = 64;
  }
  apply { t.apply(); }
}
|}
  in
  let prog = Parser.parse_program src in
  let tbl =
    List.find_map
      (function
        | Ast.DControl (cd, _) ->
            List.find_map (function Ast.LTable t -> Some t | _ -> None) cd.c_locals
        | _ -> None)
      prog
    |> Option.get
  in
  Alcotest.(check int) "entries" 2 (List.length tbl.tbl_entries);
  Alcotest.(check (option int)) "priority" (Some 3)
    (List.nth tbl.tbl_entries 1).te_priority;
  Alcotest.(check (option int)) "size" (Some 64) tbl.tbl_size

let test_typing_widths () =
  let prog = Parser.parse_program fig1a in
  let ctx = Typing.build prog in
  Alcotest.(check int) "eth width" 112 (Typing.width_of ctx (Ast.TName "ethernet_t"));
  Alcotest.(check int) "headers width" 112 (Typing.width_of ctx (Ast.TName "headers_t"));
  Alcotest.(check int) "meta width" 9 (Typing.width_of ctx (Ast.TName "meta_t"));
  let fs = Option.get (Typing.header_fields ctx "ethernet_t") in
  Alcotest.(check (pair int int)) "dst range" (111, 64) (Typing.field_range ctx fs "dst");
  Alcotest.(check (pair int int)) "type range" (15, 0) (Typing.field_range ctx fs "type")

let test_fold () =
  let src =
    {|
const bit<16> ETHERTYPE = 0x800;
control C(inout H h) {
  apply {
    if (ETHERTYPE == 0x800) {
      h.f = 1;
    } else {
      h.f = 2;
    }
    h.g = 4 + 3 * 2;
  }
}
|}
  in
  let prog = Passes.fold (Parser.parse_program src) in
  let cd =
    List.find_map (function Ast.DControl (cd, _) -> Some cd | _ -> None) prog |> Option.get
  in
  (match cd.c_body with
  | [ Ast.SBlock [ Ast.SAssign (_, _, EInt { iv = 1; _ }) ]; Ast.SAssign (_, _, EInt { iv = 10; _ }) ]
    -> ()
  | b -> Alcotest.failf "fold failed: %s" (String.concat " " (List.map Pretty.stmt_to_string b)));
  (* slices: a nested slice reads the inner slice's bits from its low
     end, and a slice of a compound expression becomes a shift and a
     truncating cast.  The simulator folds with the same function, so a
     campaign cannot see a fault here. *)
  List.iter
    (fun (stmt, want) ->
      let src = Printf.sprintf "control C(inout H h) {\n  apply {\n    %s\n  }\n}\n" stmt in
      let cd =
        List.find_map
          (function Ast.DControl (cd, _) -> Some cd | _ -> None)
          (Passes.fold (Parser.parse_program src))
        |> Option.get
      in
      Alcotest.(check string) stmt want
        (String.concat " " (List.map Pretty.stmt_to_string cd.c_body)))
    [
      ("h.y = h.x[15:8][3:0];", "h.y = h.x[11:8];");
      ("h.y = h.x[31:8][15:4][3:1];", "h.y = h.x[15:13];");
      ("h.x[15:8][3:0] = h.y;", "h.x[11:8] = h.y;");
      ("h.y = (h.a ^ h.b)[7:0];", "h.y = (bit<8>)(h.a ^ h.b);");
      ("h.y = (h.a ^ h.b)[11:4];", "h.y = (bit<8>)((h.a ^ h.b) >> 4);");
      ("h.y = 16w0xABCD[11:4];", "h.y = 8w188;");
    ]

let test_stack_elim () =
  let src =
    {|
header h_t { bit<8> v; }
struct hdrs { h_t[3] stk; }
control C(inout hdrs h, in bit<8> i) {
  apply {
    h.stk[i].v = 1;
  }
}
|}
  in
  let prog = Parser.parse_program src in
  let ctx = Typing.build prog in
  let prog = Passes.elim_stack_indices ctx prog in
  let cd =
    List.find_map (function Ast.DControl (cd, _) -> Some cd | _ -> None) prog |> Option.get
  in
  (* expect an if-chain of depth 3 *)
  let rec depth = function
    | [ Ast.SIf (_, _, _, e) ] -> 1 + depth e
    | _ -> 0
  in
  Alcotest.(check int) "chain depth" 3 (depth cd.c_body)

let test_numbering () =
  let prog = Parser.parse_program fig1a in
  let prog, n = Passes.number_statements prog in
  Alcotest.(check bool) "counted statements" true (n >= 5);
  (* all leaf statements have distinct ids *)
  let ids = ref [] in
  let rec collect_stmt s =
    match s with
    | Ast.SAssign (p, _, _) | Ast.SCall (p, _, _) | Ast.SExit p | Ast.SReturn (p, _) ->
        ids := p.Ast.line :: !ids
    | Ast.SIf (_, _, t, e) ->
        List.iter collect_stmt t;
        List.iter collect_stmt e
    | Ast.SBlock b -> List.iter collect_stmt b
    | Ast.SSwitch (_, _, cs) ->
        List.iter (fun c -> Option.iter (List.iter collect_stmt) c.Ast.sw_body) cs
    | _ -> ()
  in
  List.iter
    (function
      | Ast.DParser (pd, _) ->
          List.iter (fun st -> List.iter collect_stmt st.Ast.st_stmts) pd.p_states
      | Ast.DControl (cd, _) ->
          List.iter
            (function Ast.LAction a -> List.iter collect_stmt a.act_body | _ -> ())
            cd.c_locals;
          List.iter collect_stmt cd.c_body
      | _ -> ())
    prog;
  let sorted = List.sort_uniq compare !ids in
  Alcotest.(check int) "ids distinct" (List.length !ids) (List.length sorted);
  Alcotest.(check int) "ids match count" n (List.length !ids)

let () =
  Alcotest.run "p4-frontend"
    [
      ( "parse",
        [
          Alcotest.test_case "fig1a parses" `Quick (parses_ok "fig1a" fig1a);
          Alcotest.test_case "fig1b parses" `Quick (parses_ok "fig1b" fig1b);
          Alcotest.test_case "fig1a shape" `Quick test_fig1a_shape;
          Alcotest.test_case "fig1b shape" `Quick test_fig1b_shape;
          Alcotest.test_case "expressions" `Quick test_expr_parsing;
          Alcotest.test_case "type args" `Quick test_typeargs;
          Alcotest.test_case "select" `Quick test_select_parsing;
          Alcotest.test_case "entries" `Quick test_entries_parsing;
        ] );
      ("pretty", [ Alcotest.test_case "round trip" `Quick test_roundtrip ]);
      ("typing", [ Alcotest.test_case "widths" `Quick test_typing_widths ]);
      ( "passes",
        [
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "stack elim" `Quick test_stack_elim;
          Alcotest.test_case "numbering" `Quick test_numbering;
        ] );
    ]
