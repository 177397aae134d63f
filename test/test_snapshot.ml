(* Snapshot / warm-handoff layer tests: term import into a cloned
   context round-trips structurally, a whole execution state survives
   [Runtime.map_terms] across contexts, and a warm-cloned SAT core /
   solver gives the same verdicts as a cold one on the same problem. *)

module Bits = Bitv.Bits
module Expr = Smt.Expr
module Sat = Smt.Sat
module Solver = Smt.Solver
module Oracle = Testgen.Oracle
module Runtime = Testgen.Runtime

let v1model = Targets.V1model.target

(* ------------------------------------------------------------------ *)
(* Expr.clone_ctx / Expr.importer *)

let test_expr_import_roundtrip () =
  let ctx = Expr.create_ctx () in
  let a = Expr.var ctx "a" 8 in
  let b = Expr.var ctx "b" 16 in
  let tn = Expr.fresh_taint ctx 4 in
  let terms =
    [
      Expr.add a (Expr.slice b ~hi:7 ~lo:0);
      Expr.ite (Expr.eq a (Expr.of_int ctx ~width:8 3)) (Expr.mul a a) (Expr.lognot a);
      Expr.concat
        (Expr.shl b (Expr.of_int ctx ~width:16 2))
        (Expr.urem a (Expr.of_int ctx ~width:8 7));
      Expr.logor (Expr.zext tn 16) (Expr.sub (Expr.udiv b b) (Expr.neg b));
      Expr.conj ctx
        [ Expr.ult a (Expr.ones ctx 8); Expr.slt b (Expr.of_int ctx ~width:16 99) ];
      Expr.ashr (Expr.lshr b (Expr.of_int ctx ~width:16 1)) (Expr.of_int ctx ~width:16 2);
      Expr.logxor (Expr.logand a a) (Expr.const ctx (Bits.of_int ~width:8 0x5a));
    ]
  in
  let ctx' = Expr.clone_ctx ctx in
  let imp = Expr.importer ctx' in
  let terms' = List.map imp terms in
  List.iter2
    (fun e e' ->
      Alcotest.(check string) "printed form" (Expr.to_string e) (Expr.to_string e');
      Alcotest.(check int) "width" (Expr.width e) (Expr.width e');
      Alcotest.(check bool) "taint flag" (Expr.tainted e) (Expr.tainted e');
      Alcotest.(check int) "lives in clone" (Expr.ctx_id ctx') (Expr.ctx_id (Expr.ctx_of e')))
    terms terms';
  (* the importer is memoised: re-importing returns the same node *)
  List.iter2
    (fun e e' -> Alcotest.(check bool) "import idempotent" true (imp e == e'))
    terms terms';
  (* imported nodes join the clone's hash-consing: building the same
     structure natively from imported children finds the imported node *)
  let a' = imp a and b' = imp b in
  let rebuilt = Expr.add a' (Expr.slice b' ~hi:7 ~lo:0) in
  Alcotest.(check bool) "native rebuild shares" true (rebuilt == List.hd terms');
  (* fresh names minted in the clone stay clear of imported ones *)
  let f = Expr.fresh_var ctx' "a" 8 in
  Alcotest.(check bool) "fresh var distinct" true
    (Expr.to_string f <> Expr.to_string a')

let test_expr_import_eval_agrees () =
  (* concrete evaluation agrees between original and imported terms *)
  let ctx = Expr.create_ctx () in
  let a = Expr.var ctx "a" 8 in
  let b = Expr.var ctx "b" 8 in
  let e =
    Expr.ite
      (Expr.ult a b)
      (Expr.add (Expr.mul a b) (Expr.of_int ctx ~width:8 1))
      (Expr.logxor a (Expr.lognot b))
  in
  let ctx' = Expr.clone_ctx ctx in
  let e' = Expr.importer ctx' e in
  List.iter
    (fun (va, vb) ->
      let m v =
        if v.Expr.vname = "a" then Bits.of_int ~width:8 va else Bits.of_int ~width:8 vb
      in
      Alcotest.(check string)
        (Printf.sprintf "eval %d,%d" va vb)
        (Bits.to_string (Expr.eval m e))
        (Bits.to_string (Expr.eval m e')))
    [ (0, 0); (3, 200); (255, 1); (17, 17) ]

(* ------------------------------------------------------------------ *)
(* Runtime.map_terms: whole-state snapshot across contexts *)

let state_prints st =
  let acc = ref [] in
  Runtime.iter_terms (fun e -> acc := Expr.to_string e :: !acc) st;
  List.rev !acc

let test_state_snapshot_roundtrip () =
  let p = Oracle.prepare v1model Progzoo.Corpus.lpm_router in
  let ctx = p.Oracle.ctx in
  let ectx = ctx.Runtime.ectx in
  let st0 = Oracle.initial_state p in
  (* enrich the initial state so every term-bearing field is exercised *)
  let a = Expr.var ectx "snap_a" 8 in
  let b = Expr.var ectx "snap_b" 16 in
  let key = Expr.add a (Expr.slice b ~hi:7 ~lo:0) in
  let st =
    {
      st0 with
      Runtime.env = Runtime.Env.add "snap.x" key st0.Runtime.env;
      path_cond = Expr.eq a (Expr.of_int ectx ~width:8 3) :: st0.Runtime.path_cond;
      chunks = b :: st0.Runtime.chunks;
      registers = ("snap_reg", [| key; Expr.lognot a |]) :: st0.Runtime.registers;
      entries =
        {
          Runtime.se_table = "t";
          se_keys =
            [
              ("k0", Runtime.SkExact key);
              ("k1", Runtime.SkTernary (b, Expr.ones ectx 16));
              ("k2", Runtime.SkLpm (b, 12));
              ("k3", Runtime.SkRange (a, Expr.ones ectx 8));
              ("k4", Runtime.SkOptional (Some a));
            ];
          se_action = "act";
          se_args = [ ("p", Expr.mul a a) ];
          se_priority = Some 7;
        }
        :: st0.Runtime.entries;
      concolic =
        {
          Runtime.cc_var = a;
          cc_name = "hash";
          cc_args = [ key; b ];
          cc_impl = (fun _ -> Bits.zero 8);
        }
        :: st0.Runtime.concolic;
      outputs =
        { Runtime.o_port = a; o_data = Expr.concat b key; o_note = "snap" }
        :: st0.Runtime.outputs;
    }
  in
  let ectx' = Expr.clone_ctx ectx in
  let imp = Expr.importer ectx' in
  let st' = Runtime.map_terms imp st in
  (* every term moved and nothing changed structurally *)
  Runtime.iter_terms
    (fun e ->
      Alcotest.(check int) "term in clone" (Expr.ctx_id ectx') (Expr.ctx_id (Expr.ctx_of e)))
    st';
  Alcotest.(check (list string)) "terms identical in order" (state_prints st)
    (state_prints st');
  (* importing an already-imported state is the identity *)
  let st'' = Runtime.map_terms imp st' in
  Alcotest.(check (list string)) "second import is identity" (state_prints st')
    (state_prints st'')

(* ------------------------------------------------------------------ *)
(* Sat.clone: warm clone vs cold solver on fuzzed clause sets *)

let random_clause st nvars =
  let len = 1 + Random.State.int st 3 in
  List.init len (fun _ ->
      let v = Random.State.int st nvars in
      if Random.State.bool st then Sat.pos v else Sat.neg v)

let random_clauses st nvars n = List.init n (fun _ -> random_clause st nvars)

let test_sat_clone_verdicts () =
  let rst = Random.State.make [| 0xc10e |] in
  for _ = 1 to 150 do
    let nvars = 5 + Random.State.int rst 11 in
    let base = random_clauses rst nvars (2 + Random.State.int rst (3 * nvars)) in
    let extra = random_clauses rst nvars (1 + Random.State.int rst nvars) in
    let mk () =
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      s
    in
    (* parent: solve the base (learning clauses), then clone at level 0 *)
    let parent = mk () in
    List.iter (Sat.add_clause parent) base;
    ignore (Sat.solve parent);
    Sat.backtrack parent;
    let warm = Sat.clone parent in
    (* cold reference: fresh solver over base @ extra *)
    let cold = mk () in
    List.iter (Sat.add_clause cold) (base @ extra);
    List.iter (Sat.add_clause warm) extra;
    let expect = Sat.solve cold in
    Alcotest.(check bool) "warm clone verdict" expect (Sat.solve warm);
    Sat.backtrack warm;
    (* cloning did not corrupt the parent: it answers independently *)
    List.iter (Sat.add_clause parent) extra;
    Alcotest.(check bool) "parent after clone" expect (Sat.solve parent);
    Sat.backtrack parent
  done

(* ------------------------------------------------------------------ *)
(* Solver.clone: warm handoff at the term level *)

let test_solver_clone_verdicts () =
  let rst = Random.State.make [| 0x50afe |] in
  for _ = 1 to 40 do
    let ectx = Expr.create_ctx () in
    let a = Expr.var ectx "a" 8 in
    let b = Expr.var ectx "b" 8 in
    let c = Expr.var ectx "c" 8 in
    let rand_atom st =
      let v = [| a; b; c |].(Random.State.int st 3) in
      let k = Expr.of_int ectx ~width:8 (Random.State.int st 256) in
      match Random.State.int st 4 with
      | 0 -> Expr.eq v k
      | 1 -> Expr.ult v k
      | 2 -> Expr.eq (Expr.add v k) [| a; b; c |].(Random.State.int st 3)
      | _ -> Expr.bnot (Expr.eq v k)
    in
    let base = List.init (1 + Random.State.int rst 3) (fun _ -> rand_atom rst) in
    let extra = List.init (1 + Random.State.int rst 3) (fun _ -> rand_atom rst) in
    let parent = Solver.create ectx in
    List.iter (Solver.assert_ parent) base;
    ignore (Solver.check parent);
    (* warm clone into a cloned term context, importing the extra conds *)
    let ectx' = Expr.clone_ctx ectx in
    let imp = Expr.importer ectx' in
    let warm = Solver.clone ~ectx:ectx' parent in
    List.iter (fun e -> Solver.assert_ warm (imp e)) extra;
    (* cold reference over the original context *)
    let cold = Solver.create ectx in
    List.iter (Solver.assert_ cold) (base @ extra);
    let verdict = function Solver.Sat -> "sat" | Solver.Unsat -> "unsat" in
    Alcotest.(check string) "solver warm clone verdict"
      (verdict (Solver.check cold))
      (verdict (Solver.check warm))
  done

let () =
  Alcotest.run "snapshot"
    [
      ( "expr",
        [
          Alcotest.test_case "import round-trip" `Quick test_expr_import_roundtrip;
          Alcotest.test_case "import eval agrees" `Quick test_expr_import_eval_agrees;
        ] );
      ( "state",
        [
          Alcotest.test_case "state snapshot round-trip" `Quick
            test_state_snapshot_roundtrip;
        ] );
      ( "solver",
        [
          Alcotest.test_case "sat warm clone verdicts" `Quick test_sat_clone_verdicts;
          Alcotest.test_case "solver warm clone verdicts" `Quick
            test_solver_clone_verdicts;
        ] );
    ]
