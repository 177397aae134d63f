(* Random well-typed program generator for the self-validation
   campaign.

   Used for differential fuzzing of the oracle against the concrete
   simulator (the same methodology Gauntlet applies to P4 compilers,
   §8, pointed back at ourselves): for any generated program, every
   test the oracle emits must pass on the software model.

   Programs are emitted as P4 source so each fuzz case also exercises
   the lexer/parser.  Three architectures are covered (v1model,
   ebpf_model, tna) and the generated programs draw from the feature
   pool the oracle supports end to end: match-action tables with
   exact/ternary/lpm keys, action parameters and const entries with
   priorities, parser state machines with select over header stacks,
   slice assignments, conditional drops, and the v1model checksum
   extern.  Every program records which features it drew
   ({!gen.features}), so the campaign can assert generator coverage.

   The generated subset is deliberately deterministic on the software
   model: conditionally-parsed headers are only accessed under
   [isValid] guards, and on architectures whose uninitialized storage
   is undefined (tna) all metadata is written before it is read.
   Unguarded reads of the always-extracted Ethernet header are the one
   exception — on short-packet paths they read an invalid header,
   which the oracle soundly taints (the bits become don't-cares). *)

type arch = V1model | Ebpf | Tna

let arch_name = function V1model -> "v1model" | Ebpf -> "ebpf_model" | Tna -> "tna"

let arch_of_string = function
  | "v1model" -> Some V1model
  | "ebpf_model" -> Some Ebpf
  | "tna" -> Some Tna
  | _ -> None

let all_archs = [ V1model; Ebpf; Tna ]

type gen = { src : string; features : string list }

(** Every feature tag the generator can emit, for the coverage
    assertion in the test suite. *)
let feature_universe =
  [
    "arch.v1model";
    "arch.ebpf_model";
    "arch.tna";
    "parser.select";
    "parser.ipv4";
    "parser.extra";
    "parser.header_stack";
    "table.exact";
    "table.ternary";
    "table.lpm";
    "table.const_entries";
    "table.action_params";
    "stmt.if";
    "stmt.slice_assign";
    "stmt.drop";
    "extern.checksum";
    "extern.register_rw";
  ]

type rng = Random.State.t

let pick (st : rng) (xs : 'a list) = List.nth xs (Random.State.int st (List.length xs))
let range (st : rng) lo hi = lo + Random.State.int st (hi - lo + 1)
let chance (st : rng) p = Random.State.float st 1.0 < p

(* available scalar slots: (l-value syntax, width) *)
type slot = { path : string; width : int }

(* feature accumulator *)
type feats = { mutable tags : string list }

let mark fs tag = if not (List.mem tag fs.tags) then fs.tags <- tag :: fs.tags

(* ------------------------------------------------------------------ *)
(* Shared header layout *)

let headers_decls =
  {|
header eth_t { bit<48> dst; bit<48> src; bit<16> etype; }
header ipv4ish_t { bit<8> ttl; bit<8> proto; bit<16> csum; bit<32> saddr; bit<32> daddr; }
header extra_t { bit<8> a; bit<16> b; bit<24> c; }
header lab_t { bit<15> id; bit<1> bos; }
|}

let eth_slots =
  [
    { path = "hdr.eth.dst"; width = 48 };
    { path = "hdr.eth.src"; width = 48 };
    { path = "hdr.eth.etype"; width = 16 };
  ]

let ipv4_slots =
  [
    { path = "hdr.ipv4.ttl"; width = 8 };
    { path = "hdr.ipv4.proto"; width = 8 };
    { path = "hdr.ipv4.saddr"; width = 32 };
    { path = "hdr.ipv4.daddr"; width = 32 };
  ]

let extra_slots =
  [
    { path = "hdr.extra.a"; width = 8 };
    { path = "hdr.extra.b"; width = 16 };
    { path = "hdr.extra.c"; width = 24 };
  ]

let lab_slots = [ { path = "hdr.labs[0].id"; width = 15 } ]

let meta_slots ~meta =
  [
    { path = meta ^ ".m0"; width = 8 };
    { path = meta ^ ".m1"; width = 16 };
    { path = meta ^ ".m2"; width = 32 };
  ]

(* ------------------------------------------------------------------ *)
(* Expressions and statements *)

(* expression generator: produces a P4 expression string of the given
   width over the available slots *)
let rec gen_expr (st : rng) (slots : slot list) ~width ~depth : string =
  let const () = Printf.sprintf "%dw%d" width (Random.State.int st (1 lsl min width 24)) in
  let reads = slots in
  if depth = 0 || reads = [] then
    if reads <> [] && Random.State.bool st then begin
      let s = pick st reads in
      if s.width = width then s.path
      else if s.width > width then Printf.sprintf "%s[%d:%d]" s.path (width - 1) 0
      else Printf.sprintf "(bit<%d>)%s" width s.path
    end
    else const ()
  else begin
    let sub ?(w = width) () = gen_expr st slots ~width:w ~depth:(depth - 1) in
    match range st 0 9 with
    | 0 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 1 -> Printf.sprintf "(%s - %s)" (sub ()) (sub ())
    | 2 -> Printf.sprintf "(%s & %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s | %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s ^ %s)" (sub ()) (sub ())
    | 5 -> Printf.sprintf "(~%s)" (sub ())
    | 6 -> Printf.sprintf "(%s << %d)" (sub ()) (range st 0 (min width 7))
    | 7 -> Printf.sprintf "(%s >> %d)" (sub ()) (range st 0 (min width 7))
    | 8 when width >= 2 ->
        let wl = range st 1 (width - 1) in
        Printf.sprintf "(%s ++ %s)"
          (gen_expr st slots ~width:(width - wl) ~depth:(depth - 1))
          (gen_expr st slots ~width:wl ~depth:(depth - 1))
    | _ ->
        Printf.sprintf "(%s %s %s ? %s : %s)" (sub ())
          (pick st [ "=="; "!=" ])
          (sub ()) (sub ()) (sub ())
  end

let gen_cond (st : rng) slots ~depth : string =
  let w = pick st [ 8; 16 ] in
  Printf.sprintf "%s %s %s"
    (gen_expr st slots ~width:w ~depth)
    (pick st [ "=="; "!="; "<"; "<="; ">"; ">=" ])
    (gen_expr st slots ~width:w ~depth)

(* statements over [writable] destinations reading from [slots] *)
let rec gen_stmts (st : rng) fs ~(writable : slot list) ~(slots : slot list) ~n ~depth :
    string list =
  if n = 0 then []
  else begin
    let assign ~depth:d =
      let dst = pick st writable in
      Printf.sprintf "%s = %s;" dst.path (gen_expr st slots ~width:dst.width ~depth:d)
    in
    let stmt =
      match range st 0 5 with
      | 0 | 1 | 2 -> assign ~depth:2
      | 3 when depth > 0 ->
          mark fs "stmt.if";
          Printf.sprintf "if (%s) {\n      %s\n    } else {\n      %s\n    }"
            (gen_cond st slots ~depth:1)
            (String.concat "\n      "
               (gen_stmts st fs ~writable ~slots ~n:(min 2 n) ~depth:(depth - 1)))
            (String.concat "\n      "
               (gen_stmts st fs ~writable ~slots ~n:1 ~depth:(depth - 1)))
      | 4 ->
          let dst = pick st writable in
          let hi = range st 0 (dst.width - 1) in
          let lo = range st 0 hi in
          mark fs "stmt.slice_assign";
          Printf.sprintf "%s[%d:%d] = %s;" dst.path hi lo
            (gen_expr st slots ~width:(hi - lo + 1) ~depth:1)
      | _ -> assign ~depth:1
    in
    stmt :: gen_stmts st fs ~writable ~slots ~n:(n - 1) ~depth
  end

(* ------------------------------------------------------------------ *)
(* Parser generation (shared by the three architectures) *)

type parser_features = { use_ipv4 : bool; use_extra : bool; use_stack : bool }

let gen_parser_features st fs =
  let pf =
    {
      use_ipv4 = chance st 0.8;
      use_extra = chance st 0.5;
      use_stack = chance st 0.5;
    }
  in
  mark fs "parser.select";
  if pf.use_ipv4 then mark fs "parser.ipv4";
  if pf.use_extra then mark fs "parser.extra";
  if pf.use_stack then mark fs "parser.header_stack";
  pf

(* the parser states after the start state; [start_extracts] is the
   extraction prologue of start (differs per architecture) *)
let parser_states (pf : parser_features) ~start_extracts : string =
  let b = Buffer.create 1024 in
  let arms =
    (if pf.use_ipv4 then [ "      0x0800 : parse_ipv4;" ] else [])
    @ (if pf.use_stack then [ "      0x8847 : parse_labs;" ] else [])
    @ (if pf.use_extra then [ "      0x1234 : parse_extra;" ] else [])
    @ [ "      default : accept;" ]
  in
  Buffer.add_string b
    (Printf.sprintf
       "  state start {\n%s    transition select(hdr.eth.etype) {\n%s\n    }\n  }\n"
       start_extracts (String.concat "\n" arms));
  if pf.use_ipv4 then
    Buffer.add_string b "  state parse_ipv4 { pkt.extract(hdr.ipv4); transition accept; }\n";
  if pf.use_extra then
    Buffer.add_string b
      (Printf.sprintf
         "  state parse_extra {\n    pkt.extract(hdr.extra);\n    transition select(hdr.extra.a) {\n      %s\n      default : accept;\n    }\n  }\n"
         (if pf.use_ipv4 then "0xFF : parse_ipv4;" else "0xFE : accept;"));
  if pf.use_stack then
    Buffer.add_string b
      "  state parse_labs {\n    pkt.extract(hdr.labs.next);\n    transition select(hdr.labs.last.bos) {\n      0 : parse_labs;\n      1 : accept;\n    }\n  }\n";
  Buffer.contents b

let headers_struct (pf : parser_features) =
  let fields =
    [ "eth_t eth;" ]
    @ (if pf.use_ipv4 then [ "ipv4ish_t ipv4;" ] else [])
    @ (if pf.use_extra then [ "extra_t extra;" ] else [])
    @ if pf.use_stack then [ "lab_t[3] labs;" ] else []
  in
  Printf.sprintf "struct headers_t { %s }" (String.concat " " fields)

let emit_all (pf : parser_features) ~pkt =
  String.concat "\n    "
    ([ Printf.sprintf "%s.emit(hdr.eth);" pkt ]
    @ (if pf.use_ipv4 then [ Printf.sprintf "%s.emit(hdr.ipv4);" pkt ] else [])
    @ (if pf.use_extra then [ Printf.sprintf "%s.emit(hdr.extra);" pkt ] else [])
    @ if pf.use_stack then [ Printf.sprintf "%s.emit(hdr.labs);" pkt ] else [])

(* guarded blocks over conditionally-valid headers *)
let guarded_blocks st fs (pf : parser_features) ~writable ~slots ~indent : string list =
  let block guard extra_w extra_r =
    let writable = extra_w @ writable and slots = extra_r @ slots in
    let body = gen_stmts st fs ~writable ~slots ~n:(range st 1 2) ~depth:1 in
    mark fs "stmt.if";
    Printf.sprintf "%sif (%s) {\n%s  %s\n%s}" indent guard indent
      (String.concat ("\n" ^ indent ^ "  ") body)
      indent
  in
  (if pf.use_ipv4 then [ block "hdr.ipv4.isValid()" ipv4_slots ipv4_slots ] else [])
  @ (if pf.use_extra && chance st 0.7 then
       [ block "hdr.extra.isValid()" extra_slots extra_slots ]
     else [])
  @
  if pf.use_stack && chance st 0.7 then
    [ block "hdr.labs[0].isValid()" lab_slots lab_slots ]
  else []

(* ------------------------------------------------------------------ *)
(* Tables *)

(* a random table over the given slots; [primary] emits the statement
   that gives the hit action an architecture-visible effect (set the
   egress port / rewrite a header field) *)
let gen_table (st : rng) fs ~(writable : slot list) ~(slots : slot list) ~primary ~idx :
    string * string =
  let key = pick st slots in
  let kind = pick st [ "exact"; "ternary"; "lpm" ] in
  mark fs ("table." ^ kind);
  let nactions = range st 1 2 in
  let actions =
    List.init nactions (fun i ->
        let body =
          String.concat "\n    " (gen_stmts st fs ~writable ~slots ~n:(range st 1 2) ~depth:1)
        in
        (* a wide data parameter written into a slot exercises
           action-parameter plumbing end to end *)
        let data_param =
          if chance st 0.5 then begin
            mark fs "table.action_params";
            let dst = pick st writable in
            Some
              ( Printf.sprintf ", bit<%d> v" dst.width,
                Printf.sprintf "%s = v;\n    " dst.path )
          end
          else None
        in
        let param_sig, param_stmt =
          match data_param with Some (s, b) -> (s, b) | None -> ("", "")
        in
        mark fs "table.action_params";
        Printf.sprintf "action t%d_act%d(bit<9> p%s) {\n    %s\n    %s%s\n  }" idx i
          param_sig (primary "p") param_stmt body)
  in
  let decl =
    Printf.sprintf
      {|%s
  action t%d_miss() { }
  table t%d {
    key = { %s : %s @name("k%d"); }
    actions = { %s t%d_miss; }
    default_action = t%d_miss();
  }|}
      (String.concat "\n  " actions)
      idx idx key.path kind idx
      (String.concat " " (List.init nactions (fun i -> Printf.sprintf "t%d_act%d;" idx i)))
      idx idx
  in
  (decl, Printf.sprintf "t%d.apply();" idx)

(* a ternary table with const entries and priorities (the
   Ignore_entry_priority fault class surface) *)
let gen_const_table (st : rng) fs ~(writable : slot list) ~idx : string * string =
  mark fs "table.const_entries";
  mark fs "table.ternary";
  mark fs "table.action_params";
  let dst = pick st (List.filter (fun s -> s.width >= 8) writable) in
  let n_entries = range st 2 3 in
  let entries =
    List.init n_entries (fun i ->
        let v = Random.State.int st 0x10000 in
        let m = pick st [ 0xFFFF; 0xFF00; 0x0FF0; 0xF00F ] in
        let prio = if chance st 0.6 then Printf.sprintf "@priority(%d) " (i + 1) else "" in
        Printf.sprintf "      %s(0x%04X &&& 0x%04X) : c%d_mark(%d);" prio v m idx
          (Random.State.int st 200))
  in
  let decl =
    Printf.sprintf
      {|action c%d_mark(bit<8> v) { %s = (bit<%d>)v; }
  action c%d_skip() { }
  table c%d {
    key = { hdr.eth.etype : ternary @name("ce%d"); }
    actions = { c%d_mark; c%d_skip; }
    const entries = {
%s
    }
    default_action = c%d_skip();
  }|}
      idx dst.path dst.width idx idx idx idx idx
      (String.concat "\n" entries)
      idx
  in
  (decl, Printf.sprintf "c%d.apply();" idx)

(* ------------------------------------------------------------------ *)
(* v1model *)

let gen_v1model (st : rng) fs : string =
  mark fs "arch.v1model";
  let pf = gen_parser_features st fs in
  let b = Buffer.create 4096 in
  Buffer.add_string b headers_decls;
  Buffer.add_string b (headers_struct pf);
  Buffer.add_string b "\nstruct meta_t { bit<8> m0; bit<16> m1; bit<32> m2; }\n\n";
  Buffer.add_string b
    "parser P(packet_in pkt, out headers_t hdr, inout meta_t meta,\n         inout standard_metadata_t sm) {\n";
  Buffer.add_string b (parser_states pf ~start_extracts:"    pkt.extract(hdr.eth);\n");
  Buffer.add_string b "}\n";
  Buffer.add_string b "control V(inout headers_t hdr, inout meta_t meta) { apply { } }\n";
  Buffer.add_string b
    "control I(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {\n";
  let base = eth_slots @ meta_slots ~meta:"meta" in
  let primary p = Printf.sprintf "sm.egress_spec = %s;" p in
  let ntables = range st 1 2 in
  let tables =
    List.init ntables (fun i -> gen_table st fs ~writable:base ~slots:base ~primary ~idx:i)
  in
  let tables =
    if chance st 0.5 then tables @ [ gen_const_table st fs ~writable:base ~idx:0 ]
    else tables
  in
  List.iter (fun (decl, _) -> Buffer.add_string b ("  " ^ decl ^ "\n")) tables;
  (* a stateful register with a read-after-write: under sequence mode
     (seq_packets > 1) the second packet observes the first one's write *)
  let use_reg = chance st 0.35 in
  let reg_idx = range st 0 7 in
  if use_reg then begin
    mark fs "extern.register_rw";
    Buffer.add_string b "  register<bit<32>>(8) regs;\n"
  end;
  Buffer.add_string b "  apply {\n";
  if use_reg then begin
    mark fs "stmt.if";
    Buffer.add_string b
      (Printf.sprintf "    regs.read(meta.m2, %d);\n" reg_idx);
    Buffer.add_string b
      (Printf.sprintf "    regs.write(%d, meta.m2 + %d);\n" reg_idx (range st 1 5));
    Buffer.add_string b
      (Printf.sprintf "    if (meta.m2 == 0) {\n      sm.egress_spec = %d;\n    }\n"
         (range st 1 9))
  end;
  let stmts = gen_stmts st fs ~writable:base ~slots:base ~n:(range st 2 4) ~depth:2 in
  List.iter (fun s -> Buffer.add_string b ("    " ^ s ^ "\n")) stmts;
  List.iter (fun (_, app) -> Buffer.add_string b ("    " ^ app ^ "\n")) tables;
  List.iter
    (fun blk -> Buffer.add_string b (blk ^ "\n"))
    (guarded_blocks st fs pf ~writable:base ~slots:base ~indent:"    ");
  if chance st 0.5 then begin
    mark fs "stmt.drop";
    Buffer.add_string b
      (Printf.sprintf "    if (%s) {\n      mark_to_drop(sm);\n    }\n"
         (gen_cond st base ~depth:1))
  end;
  Buffer.add_string b "  }\n}\n";
  Buffer.add_string b
    "control E(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }\n";
  if pf.use_ipv4 && chance st 0.5 then begin
    mark fs "extern.checksum";
    Buffer.add_string b
      {|control C(inout headers_t hdr, inout meta_t meta) {
  apply {
    update_checksum(hdr.ipv4.isValid(),
                    {hdr.ipv4.ttl, hdr.ipv4.proto, hdr.ipv4.saddr, hdr.ipv4.daddr},
                    hdr.ipv4.csum, HashAlgorithm.csum16);
  }
}
|}
  end
  else
    Buffer.add_string b "control C(inout headers_t hdr, inout meta_t meta) { apply { } }\n";
  Buffer.add_string b
    (Printf.sprintf "control D(packet_out pkt, in headers_t hdr) {\n  apply {\n    %s\n  }\n}\n"
       (emit_all pf ~pkt:"pkt"));
  Buffer.add_string b "V1Switch(P(), V(), I(), E(), C(), D()) main;\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* ebpf_model *)

let gen_ebpf (st : rng) fs : string =
  mark fs "arch.ebpf_model";
  let pf = gen_parser_features st fs in
  let b = Buffer.create 4096 in
  Buffer.add_string b headers_decls;
  Buffer.add_string b (headers_struct pf);
  Buffer.add_string b "\n\nparser prs(packet_in pkt, out headers_t hdr) {\n";
  Buffer.add_string b (parser_states pf ~start_extracts:"    pkt.extract(hdr.eth);\n");
  Buffer.add_string b "}\n";
  Buffer.add_string b "control pipe(inout headers_t hdr, out bool pass) {\n";
  let base = eth_slots in
  (* table actions only rewrite header fields: the filter's verdict
     stays in the apply block *)
  let primary _ = "hdr.eth.dst[8:0] = p;" in
  let tables =
    if chance st 0.7 then
      [ gen_table st fs ~writable:base ~slots:base ~primary ~idx:0 ]
    else []
  in
  List.iter (fun (decl, _) -> Buffer.add_string b ("  " ^ decl ^ "\n")) tables;
  Buffer.add_string b "  apply {\n";
  (* the verdict is always initialized first: [pass] is an out param *)
  Buffer.add_string b (Printf.sprintf "    pass = %b;\n" (Random.State.bool st));
  let stmts = gen_stmts st fs ~writable:base ~slots:base ~n:(range st 1 3) ~depth:1 in
  List.iter (fun s -> Buffer.add_string b ("    " ^ s ^ "\n")) stmts;
  List.iter (fun (_, app) -> Buffer.add_string b ("    " ^ app ^ "\n")) tables;
  List.iter
    (fun blk -> Buffer.add_string b (blk ^ "\n"))
    (guarded_blocks st fs pf ~writable:base ~slots:base ~indent:"    ");
  mark fs "stmt.if";
  mark fs "stmt.drop";
  Buffer.add_string b
    (Printf.sprintf "    if (%s) {\n      pass = %b;\n    }\n" (gen_cond st base ~depth:1)
       (Random.State.bool st));
  Buffer.add_string b "  }\n}\n";
  Buffer.add_string b "ebpfFilter(prs(), pipe()) main;\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* tna *)

let gen_tna (st : rng) fs : string =
  mark fs "arch.tna";
  let pf = gen_parser_features st fs in
  let b = Buffer.create 4096 in
  Buffer.add_string b headers_decls;
  Buffer.add_string b (headers_struct pf);
  Buffer.add_string b "\nstruct meta_t { bit<8> m0; bit<16> m1; bit<32> m2; }\n\n";
  Buffer.add_string b
    "parser IgParser(packet_in pkt, out headers_t hdr, out meta_t md,\n                out ingress_intrinsic_metadata_t ig_intr_md) {\n";
  Buffer.add_string b
    (parser_states pf
       ~start_extracts:"    pkt.extract(ig_intr_md);\n    pkt.extract(hdr.eth);\n");
  Buffer.add_string b "}\n";
  Buffer.add_string b
    {|control Ig(inout headers_t hdr, inout meta_t md,
           in ingress_intrinsic_metadata_t ig_intr_md,
           in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
           inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
           inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
|};
  let base = eth_slots @ meta_slots ~meta:"md" in
  let primary p = Printf.sprintf "ig_tm_md.ucast_egress_port = %s;" p in
  let ntables = range st 1 2 in
  let tables =
    List.init ntables (fun i -> gen_table st fs ~writable:base ~slots:base ~primary ~idx:i)
  in
  let tables =
    if chance st 0.4 then tables @ [ gen_const_table st fs ~writable:base ~idx:0 ]
    else tables
  in
  List.iter (fun (decl, _) -> Buffer.add_string b ("  " ^ decl ^ "\n")) tables;
  Buffer.add_string b "  apply {\n";
  (* tna metadata is uninitialized garbage: define before any use *)
  Buffer.add_string b
    (Printf.sprintf "    md.m0 = %d;\n    md.m1 = %d;\n    md.m2 = %d;\n"
       (Random.State.int st 256) (Random.State.int st 65536) (Random.State.int st 100000));
  let stmts = gen_stmts st fs ~writable:base ~slots:base ~n:(range st 1 3) ~depth:2 in
  List.iter (fun s -> Buffer.add_string b ("    " ^ s ^ "\n")) stmts;
  List.iter (fun (_, app) -> Buffer.add_string b ("    " ^ app ^ "\n")) tables;
  List.iter
    (fun blk -> Buffer.add_string b (blk ^ "\n"))
    (guarded_blocks st fs pf ~writable:base ~slots:base ~indent:"    ");
  if chance st 0.4 then begin
    mark fs "stmt.drop";
    Buffer.add_string b
      (Printf.sprintf "    if (%s) {\n      ig_dprsr_md.drop_ctl = 1;\n    }\n"
         (gen_cond st base ~depth:1))
  end;
  Buffer.add_string b "  }\n}\n";
  Buffer.add_string b
    (Printf.sprintf
       {|control IgDeparser(packet_out pkt, inout headers_t hdr, in meta_t md,
                   in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {
  apply {
    %s
  }
}
|}
       (emit_all pf ~pkt:"pkt"));
  Buffer.add_string b
    {|parser EgParser(packet_in pkt, out headers_t hdr, out meta_t md,
                out egress_intrinsic_metadata_t eg_intr_md) {
  state start {
    pkt.extract(eg_intr_md);
    pkt.extract(hdr.eth);
    transition accept;
  }
}
control Eg(inout headers_t hdr, inout meta_t md,
           in egress_intrinsic_metadata_t eg_intr_md,
           in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
           inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
           inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {
  apply {
|};
  if chance st 0.4 then
    Buffer.add_string b
      (Printf.sprintf "    hdr.eth.src = 0x%012X;\n"
         (Random.State.int st 0x1000000));
  Buffer.add_string b
    {|  }
}
control EgDeparser(packet_out pkt, inout headers_t hdr, in meta_t md,
                   in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {
  apply { pkt.emit(hdr.eth); }
}
Switch(Pipeline(IgParser(), Ig(), IgDeparser(), EgParser(), Eg(), EgDeparser())) main;
|};
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Entry points *)

(** Generate a random program for [arch] from a seed, with the list of
    generator features it exercises. *)
let generate_for ~(arch : arch) ~seed : gen =
  let st = Random.State.make [| seed; Hashtbl.hash (arch_name arch) |] in
  let fs = { tags = [] } in
  let src =
    match arch with V1model -> gen_v1model st fs | Ebpf -> gen_ebpf st fs | Tna -> gen_tna st fs
  in
  { src; features = List.sort compare fs.tags }
