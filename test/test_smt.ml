(* Tests for the QF_BV solver stack: expression layer, bit-blaster,
   CDCL SAT core.  The key property test is differential: a random
   term is evaluated under a random environment, and the solver must
   (a) find the constraint [term = value] satisfiable and (b) return a
   model under which concrete evaluation reproduces a consistent
   value. *)

module Bits = Bitv.Bits
module Expr = Smt.Expr
module Solver = Smt.Solver
module Sat = Smt.Sat

let check_bits = Alcotest.testable Bits.pp Bits.equal

(* one term context for the whole test binary; interleaving of
   independent contexts is exercised in test_oracle.ml *)
let ctx = Expr.create_ctx ()

let fresh =
  let n = ref 0 in
  fun w ->
    incr n;
    Expr.var ctx (Printf.sprintf "tv%d_%d" !n w) w

(* ------------------------------------------------------------------ *)
(* Plain SAT-level tests *)

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.pos b ];
  Sat.add_clause s [ Sat.neg a ];
  Alcotest.(check bool) "sat" true (Sat.solve s);
  Alcotest.(check bool) "a false" false (Sat.value s a);
  Alcotest.(check bool) "b true" true (Sat.value s b)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  Sat.add_clause s [ Sat.neg a ];
  Alcotest.(check bool) "unsat" false (Sat.solve s)

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.neg a; Sat.pos b ];
  Alcotest.(check bool) "sat under a" true (Sat.solve ~assumptions:[ Sat.pos a ] s);
  Alcotest.(check bool) "b implied" true (Sat.value s b);
  Sat.backtrack s;
  Sat.add_clause s [ Sat.neg b ];
  Alcotest.(check bool) "unsat under a" false (Sat.solve ~assumptions:[ Sat.pos a ] s);
  Alcotest.(check bool) "still sat without" true (Sat.solve s)

let test_sat_pigeonhole () =
  (* 4 pigeons, 3 holes: classic small UNSAT instance exercising
     learning and backjumping. *)
  let s = Sat.create () in
  let np = 4 and nh = 3 in
  let v = Array.init np (fun _ -> Array.init nh (fun _ -> Sat.new_var s)) in
  for p = 0 to np - 1 do
    Sat.add_clause s (List.init nh (fun h -> Sat.pos v.(p).(h)))
  done;
  for h = 0 to nh - 1 do
    for p1 = 0 to np - 1 do
      for p2 = p1 + 1 to np - 1 do
        Sat.add_clause s [ Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" false (Sat.solve s)

let test_sat_graph_coloring () =
  (* K4 is 3-colorable iff false; K3 is. *)
  let color_clauses s nverts ncolors edges =
    let v = Array.init nverts (fun _ -> Array.init ncolors (fun _ -> Sat.new_var s)) in
    for i = 0 to nverts - 1 do
      Sat.add_clause s (List.init ncolors (fun c -> Sat.pos v.(i).(c)))
    done;
    List.iter
      (fun (i, j) ->
        for c = 0 to ncolors - 1 do
          Sat.add_clause s [ Sat.neg v.(i).(c); Sat.neg v.(j).(c) ]
        done)
      edges
  in
  let k n = List.concat_map (fun i -> List.init n (fun j -> (i, j))) (List.init n Fun.id)
            |> List.filter (fun (i, j) -> i < j) in
  let s1 = Sat.create () in
  color_clauses s1 3 3 (k 3);
  Alcotest.(check bool) "K3 3-colorable" true (Sat.solve s1);
  let s2 = Sat.create () in
  color_clauses s2 4 3 (k 4);
  Alcotest.(check bool) "K4 not 3-colorable" false (Sat.solve s2)

(* ------------------------------------------------------------------ *)
(* Expression layer *)

let test_expr_fold () =
  let open Expr in
  let a = of_int ctx ~width:8 10 and b = of_int ctx ~width:8 3 in
  Alcotest.(check check_bits) "fold add" (Bits.of_int ~width:8 13)
    (Option.get (is_const (add a b)));
  Alcotest.(check bool) "x & 0 = 0" true
    (is_const (logand (fresh 8) (zero ctx 8)) = Some (Bits.zero 8));
  let x = fresh 8 in
  Alcotest.(check bool) "x | 0 = x" true (logor x (zero ctx 8) == x);
  Alcotest.(check bool) "x ^ x = 0" true (is_const (logxor x x) = Some (Bits.zero 8));
  Alcotest.(check bool) "eq self" true (is_true (eq x x));
  Alcotest.(check bool) "ite folds" true (ite (tru ctx) x (zero ctx 8) == x)

let test_expr_taint_rules () =
  let open Expr in
  let t = fresh_taint ctx 8 in
  Alcotest.(check bool) "taint is tainted" true (tainted t);
  Alcotest.(check bool) "taint * 0 = 0 kills taint" false
    (tainted (mul t (zero ctx 8)));
  Alcotest.(check bool) "taint & 0 kills taint" false (tainted (logand t (zero ctx 8)));
  Alcotest.(check bool) "taint ^ taint stays tainted" true (tainted (logxor t t));
  Alcotest.(check bool) "eq t t stays tainted" true (tainted (eq t t));
  let x = fresh 8 in
  Alcotest.(check bool) "concat taints" true (tainted (concat t x));
  (* per-bit mask through concat and slice *)
  let c = concat t x in
  Alcotest.(check check_bits) "mask hi tainted"
    (Bits.concat (Bits.ones 8) (Bits.zero 8))
    (taint_mask c);
  Alcotest.(check check_bits) "slice lo untainted" (Bits.zero 8)
    (taint_mask (slice c ~hi:7 ~lo:0));
  Alcotest.(check check_bits) "slice hi tainted" (Bits.ones 8)
    (taint_mask (slice c ~hi:15 ~lo:8));
  (* arithmetic spreads upward only *)
  let sum = add (concat x t) (zero ctx 16) in
  ignore sum;
  let low_taint = concat x t in
  Alcotest.(check check_bits) "add taints upward" (Bits.ones 16)
    (taint_mask (add low_taint (Expr.var ctx "tm_one" 16)))

let test_expr_slice_concat () =
  let open Expr in
  let x = fresh 8 and y = fresh 8 in
  let c = concat x y in
  Alcotest.(check bool) "slice of concat hi" true (slice c ~hi:15 ~lo:8 == x);
  Alcotest.(check bool) "slice of concat lo" true (slice c ~hi:7 ~lo:0 == y);
  Alcotest.(check bool) "slice full" true (slice x ~hi:7 ~lo:0 == x);
  (* adjacent slices re-fuse *)
  let hi = slice x ~hi:7 ~lo:4 and lo = slice x ~hi:3 ~lo:0 in
  Alcotest.(check bool) "slices fuse" true (concat hi lo == x)

let test_expr_eval () =
  let open Expr in
  let x = fresh 8 in
  let env v = if v == var_of x then Bits.of_int ~width:8 7 else Bits.zero v.vwidth in
  let e = add (mul x (of_int ctx ~width:8 3)) (of_int ctx ~width:8 1) in
  Alcotest.(check check_bits) "eval" (Bits.of_int ~width:8 22) (eval env e)

(* ------------------------------------------------------------------ *)
(* Solver end-to-end *)

let test_solver_simple () =
  let s = Solver.create ctx in
  let x = fresh 8 in
  Solver.assert_ s (Expr.eq (Expr.add x (Expr.of_int ctx ~width:8 1)) (Expr.of_int ctx ~width:8 0));
  Alcotest.(check bool) "sat" true (Solver.check s = Solver.Sat);
  Alcotest.(check check_bits) "x = 255" (Bits.of_int ~width:8 255)
    (Solver.model_var s (Expr.var_of x))

let test_solver_unsat () =
  let s = Solver.create ctx in
  let x = fresh 8 in
  Solver.assert_ s (Expr.ult x (Expr.of_int ctx ~width:8 5));
  Solver.assert_ s (Expr.ugt x (Expr.of_int ctx ~width:8 10));
  Alcotest.(check bool) "unsat" true (Solver.check s = Solver.Unsat)

let test_solver_push_pop () =
  let s = Solver.create ctx in
  let x = fresh 8 in
  Solver.assert_ s (Expr.ult x (Expr.of_int ctx ~width:8 100));
  Solver.push s;
  Solver.assert_ s (Expr.ugt x (Expr.of_int ctx ~width:8 200));
  Alcotest.(check bool) "inner unsat" true (Solver.check s = Solver.Unsat);
  Solver.pop s;
  Alcotest.(check bool) "outer sat" true (Solver.check s = Solver.Sat);
  Solver.push s;
  Solver.assert_ s (Expr.eq x (Expr.of_int ctx ~width:8 42));
  Alcotest.(check bool) "refined sat" true (Solver.check s = Solver.Sat);
  Alcotest.(check check_bits) "model respects scope" (Bits.of_int ~width:8 42)
    (Solver.model_var s (Expr.var_of x));
  Solver.pop s

let test_solver_mul_inverse () =
  (* find x with x * 3 = 33 (mod 256): x = 11 + k*256/gcd... unique since 3 is odd *)
  let s = Solver.create ctx in
  let x = fresh 8 in
  Solver.assert_ s (Expr.eq (Expr.mul x (Expr.of_int ctx ~width:8 3)) (Expr.of_int ctx ~width:8 33));
  Alcotest.(check bool) "sat" true (Solver.check s = Solver.Sat);
  Alcotest.(check check_bits) "x = 11" (Bits.of_int ~width:8 11)
    (Solver.model_var s (Expr.var_of x))

let test_solver_div () =
  let s = Solver.create ctx in
  let x = fresh 8 in
  Solver.assert_ s (Expr.eq (Expr.udiv x (Expr.of_int ctx ~width:8 10)) (Expr.of_int ctx ~width:8 5));
  Solver.assert_ s (Expr.eq (Expr.urem x (Expr.of_int ctx ~width:8 10)) (Expr.of_int ctx ~width:8 7));
  Alcotest.(check bool) "sat" true (Solver.check s = Solver.Sat);
  Alcotest.(check check_bits) "x = 57" (Bits.of_int ~width:8 57)
    (Solver.model_var s (Expr.var_of x))

let test_solver_shift () =
  let s = Solver.create ctx in
  let x = fresh 8 and k = fresh 8 in
  Solver.assert_ s (Expr.eq (Expr.shl x k) (Expr.of_int ctx ~width:8 0xA0));
  Solver.assert_ s (Expr.eq k (Expr.of_int ctx ~width:8 4));
  Alcotest.(check bool) "sat" true (Solver.check s = Solver.Sat);
  let xv = Solver.model_var s (Expr.var_of x) in
  Alcotest.(check check_bits) "x << 4 = 0xA0" (Bits.of_int ~width:8 0xA0)
    (Bits.shift_left xv 4)

let test_solver_assuming () =
  let s = Solver.create ctx in
  let x = fresh 8 in
  Solver.assert_ s (Expr.ult x (Expr.of_int ctx ~width:8 50));
  let lt10 = Expr.ult x (Expr.of_int ctx ~width:8 10) in
  Alcotest.(check bool) "assume sat" true (Solver.check_assuming s [ lt10 ] = Solver.Sat);
  Alcotest.(check bool) "assume contradiction" true
    (Solver.check_assuming s [ lt10; Expr.uge x (Expr.of_int ctx ~width:8 20) ] = Solver.Unsat);
  (* assumptions are not retained *)
  Alcotest.(check bool) "still sat" true (Solver.check s = Solver.Sat)

let test_solver_concat_model () =
  let s = Solver.create ctx in
  let hi = fresh 8 and lo = fresh 8 in
  Solver.assert_ s (Expr.eq (Expr.concat hi lo) (Expr.of_int ctx ~width:16 0xBEEF));
  Alcotest.(check bool) "sat" true (Solver.check s = Solver.Sat);
  Alcotest.(check check_bits) "hi" (Bits.of_int ~width:8 0xBE) (Solver.model_var s (Expr.var_of hi));
  Alcotest.(check check_bits) "lo" (Bits.of_int ~width:8 0xEF) (Solver.model_var s (Expr.var_of lo))

(* every readout path — live model, variable and captured model —
   returns an asserted constant exactly, on both sides of the word
   and byte boundaries and at packet widths *)
let test_solver_wide_model () =
  let st = Random.State.make [| 42 |] in
  List.iter
    (fun w ->
      let s = Solver.create ctx in
      let x = fresh w in
      let c = Bits.random st w in
      Solver.assert_ s (Expr.eq x (Expr.const ctx c));
      Alcotest.(check bool) (Printf.sprintf "sat at width %d" w) true
        (Solver.check s = Solver.Sat);
      let name = Printf.sprintf "%s at width %d" in
      Alcotest.(check check_bits) (name "model_eval" w) c (Solver.model_eval s x);
      Alcotest.(check check_bits) (name "model_var" w) c
        (Solver.model_var s (Expr.var_of x));
      let m = Option.get (Solver.capture_model s) in
      Alcotest.(check check_bits) (name "frozen_eval" w) c (Solver.frozen_eval m x))
    [ 1; 7; 8; 63; 64; 65; 128; 512; 1500 ]

(* bits the model leaves unassigned read as the suggested value from a
   live solver and as zero from a captured model *)
let test_solver_suggestion_fallback () =
  let s = Solver.create ctx in
  let x = fresh 32 in
  Solver.assert_ s
    (Expr.eq (Expr.slice x ~hi:7 ~lo:0) (Expr.of_int ctx ~width:8 0xA5));
  Solver.suggest s x (Bits.of_int ~width:32 0x12345678);
  Alcotest.(check bool) "sat" true (Solver.check s = Solver.Sat);
  Alcotest.(check check_bits) "suggestion above bit 7"
    (Bits.of_int ~width:32 0x123456A5)
    (Solver.model_var s (Expr.var_of x));
  let m = Option.get (Solver.capture_model s) in
  Alcotest.(check check_bits) "zero above bit 7" (Bits.of_int ~width:32 0xA5)
    (Solver.frozen_eval m x)

(* ------------------------------------------------------------------ *)
(* Differential property: random terms vs concrete evaluation *)

let gen_term =
  let open QCheck.Gen in
  let width = 8 in
  (* operators preserving width 8 *)
  fix (fun self depth ->
      let leaf =
        oneof
          [
            (int_range 0 255 >|= fun n -> Expr.of_int ctx ~width n);
            oneofl
              [ Expr.var ctx "gx" width; Expr.var ctx "gy" width; Expr.var ctx "gz" width ];
          ]
      in
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [
            leaf;
            (map2 Expr.add sub sub);
            (map2 Expr.sub sub sub);
            (map2 Expr.logand sub sub);
            (map2 Expr.logor sub sub);
            (map2 Expr.logxor sub sub);
            (map Expr.lognot sub);
            (map2 Expr.mul sub sub);
            (map2 Expr.udiv sub sub);
            (map2 Expr.urem sub sub);
            (map2 Expr.shl sub sub);
            (map2 Expr.lshr sub sub);
            (map2 Expr.ashr sub sub);
            (map3 (fun c a b -> Expr.ite (Expr.ult c a) a b) sub sub sub);
            (map2 (fun a b -> Expr.concat (Expr.slice a ~hi:3 ~lo:0) (Expr.slice b ~hi:7 ~lo:4))
               sub sub);
          ])
    3

let arb_term = QCheck.make ~print:Expr.to_string gen_term

let env_of (xv, yv, zv) v =
  match v.Expr.vname with
  | "gx" -> xv
  | "gy" -> yv
  | "gz" -> zv
  | _ -> Bits.zero v.Expr.vwidth

let arb_term_env =
  QCheck.make
    ~print:(fun (e, (x, y, z)) ->
      Printf.sprintf "%s under x=%s y=%s z=%s" (Expr.to_string e) (Bits.to_string x)
        (Bits.to_string y) (Bits.to_string z))
    QCheck.Gen.(
      pair gen_term
        (triple
           (int_range 0 255 >|= fun n -> Bits.of_int ~width:8 n)
           (int_range 0 255 >|= fun n -> Bits.of_int ~width:8 n)
           (int_range 0 255 >|= fun n -> Bits.of_int ~width:8 n)))

let diff_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"solver agrees with eval" arb_term_env
         (fun (e, env3) ->
           let expect = Expr.eval (env_of env3) e in
           let s = Solver.create ctx in
           Solver.assert_ s (Expr.eq e (Expr.const ctx expect));
           (* the concrete env is a witness, so this must be SAT *)
           if Solver.check s <> Solver.Sat then false
           else
             (* and the returned model must itself evaluate the term to
                the same constant *)
             let model v = Solver.model_var s v in
             Bits.equal (Expr.eval model e) expect));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"eq with witness env is sat" arb_term_env
         (fun (e, env3) ->
           let expect = Expr.eval (env_of env3) e in
           let s = Solver.create ctx in
           let x = Expr.var ctx "gx" 8 and y = Expr.var ctx "gy" 8 and z = Expr.var ctx "gz" 8 in
           let xv, yv, zv = env3 in
           Solver.assert_ s (Expr.eq x (Expr.const ctx xv));
           Solver.assert_ s (Expr.eq y (Expr.const ctx yv));
           Solver.assert_ s (Expr.eq z (Expr.const ctx zv));
           Solver.assert_ s (Expr.eq e (Expr.const ctx expect));
           Solver.check s = Solver.Sat));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60 ~name:"term != itself is unsat" arb_term
         (fun e ->
           let s = Solver.create ctx in
           Solver.assert_ s (Expr.neq e e);
           (* [neq e e] folds to false unless tainted; either way unsat *)
           Solver.check s = Solver.Unsat));
  ]

(* ------------------------------------------------------------------ *)
(* Word-level simplification (Expr.simplify / known_bits) *)

let test_simplify_concat_eq () =
  (* equality of aligned concats splits per part; the constant parts
     disagree, so the whole equality folds to false *)
  let x = fresh 8 in
  let a = Expr.concat x (Expr.of_int ctx ~width:8 0xAA) in
  let b = Expr.concat x (Expr.of_int ctx ~width:8 0xBB) in
  Alcotest.(check bool) "folds to false" true (Expr.is_false (Expr.simplify (Expr.eq a b)));
  (* agreeing constant parts leave only the variable equality, which
     folds to true *)
  let c = Expr.concat x (Expr.of_int ctx ~width:8 0xAA) in
  Alcotest.(check bool) "folds to true" true (Expr.is_true (Expr.simplify (Expr.eq a c)))

let test_simplify_known_range () =
  (* zext x8 to 16 caps the value at 255 < 256: the comparison is
     decided by known-bits ranges, not by the solver *)
  let x = fresh 8 in
  let e = Expr.ult (Expr.zext x 16) (Expr.of_int ctx ~width:16 256) in
  Alcotest.(check bool) "ult decided" true (Expr.is_true (Expr.simplify e));
  let m, v = Expr.known_bits (Expr.zext x 16) in
  Alcotest.(check check_bits) "high byte known zero"
    (Bits.of_int ~width:16 0xff00) (Bits.logand m (Bits.lognot v));
  (* a known-disagreeing bit refutes an equality: x ++ 1 is odd *)
  let odd = Expr.concat x (Expr.ones ctx 1) in
  let even = Expr.zero ctx 9 in
  Alcotest.(check bool) "parity refutes eq" true
    (Expr.is_false (Expr.simplify (Expr.eq odd even)))

let test_simplify_ite_nesting () =
  let c = Expr.eq (fresh 8) (Expr.zero ctx 8) in
  let a = fresh 8 and b = fresh 8 and d = fresh 8 in
  (* the inner ite repeats the (hash-consed) outer condition: its dead
     arm disappears *)
  let e = Expr.ite c (Expr.ite c a b) d in
  let expected = Expr.ite c a d in
  Alcotest.(check bool) "nested ite pruned" true (Expr.simplify e == expected);
  (* negated conditions flip arms instead of blasting the Not *)
  let e' = Expr.ite (Expr.bnot c) d a in
  Alcotest.(check bool) "not-cond flipped" true (Expr.simplify e' == expected)

let test_simplify_counts_hits () =
  let before = Expr.rewrite_hits ctx in
  let x = fresh 8 in
  let e =
    Expr.eq
      (Expr.concat x (Expr.of_int ctx ~width:8 1))
      (Expr.concat x (Expr.of_int ctx ~width:8 2))
  in
  ignore (Expr.simplify e);
  Alcotest.(check bool) "hits counted" true (Expr.rewrite_hits ctx > before);
  (* memoised: a second pass over the same term is free *)
  let mid = Expr.rewrite_hits ctx in
  ignore (Expr.simplify e);
  Alcotest.(check int) "memoised" mid (Expr.rewrite_hits ctx)

let simplify_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"simplify preserves evaluation" arb_term_env
         (fun (e, env3) ->
           let s = Expr.simplify e in
           Bits.equal (Expr.eval (env_of env3) e) (Expr.eval (env_of env3) s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"simplify is idempotent" arb_term
         (fun e ->
           let s = Expr.simplify e in
           Expr.simplify s == s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"known bits are sound" arb_term_env
         (fun (e, env3) ->
           let m, v = Expr.known_bits e in
           let actual = Expr.eval (env_of env3) e in
           (* every claimed-known bit matches concrete evaluation *)
           Bits.equal (Bits.logand m actual) (Bits.logand m v)));
  ]

(* ------------------------------------------------------------------ *)
(* Scopes own what they add: pops, captured models, clausification *)

(* width-1 terms over the differential's 8-bit terms: comparisons,
   equalities against constants, single bits and constants as atoms,
   joined by the boolean connectives *)
let gen_bool =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map2 Expr.eq gen_term gen_term;
        map2 Expr.neq gen_term gen_term;
        map2 Expr.ult gen_term gen_term;
        map2 Expr.slt gen_term gen_term;
        map2 (fun t n -> Expr.eq t (Expr.of_int ctx ~width:8 n)) gen_term (int_range 0 255);
        map2
          (fun t n -> Expr.eq (Expr.slice t ~hi:5 ~lo:2) (Expr.of_int ctx ~width:4 n))
          gen_term (int_range 0 15);
        map2 (fun t i -> Expr.slice t ~hi:i ~lo:i) gen_term (int_range 0 7);
        oneofl [ Expr.tru ctx; Expr.fls ctx ];
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then atom
      else
        let sub = self (depth - 1) in
        oneof
          [
            atom;
            map2 Expr.band sub sub;
            map2 Expr.bor sub sub;
            map Expr.bnot sub;
            map2 Expr.eq sub sub;
            map3 Expr.ite sub sub sub;
          ])
    3

let arb_bool_env =
  QCheck.make
    ~print:(fun (e, (x, y, z)) ->
      Printf.sprintf "%s under x=%s y=%s z=%s" (Expr.to_string e) (Bits.to_string x)
        (Bits.to_string y) (Bits.to_string z))
    QCheck.Gen.(
      pair gen_bool
        (triple
           (int_range 0 255 >|= fun n -> Bits.of_int ~width:8 n)
           (int_range 0 255 >|= fun n -> Bits.of_int ~width:8 n)
           (int_range 0 255 >|= fun n -> Bits.of_int ~width:8 n)))

(* the clauses of a term, guarded by [g], and its literal each decide
   the term the way evaluation does, with the inputs fixed by
   assumptions *)
let clauses_agree_with_lit (e, env3) =
  let sat = Sat.create () in
  let b = Smt.Blast.create ctx sat in
  let g = Sat.new_var sat in
  List.iter (fun c -> Sat.add_clause sat (Sat.neg g :: c)) (Smt.Blast.clauses b e);
  let l = Smt.Blast.lit b e in
  let xv, yv, zv = env3 in
  let inputs =
    List.concat_map
      (fun (name, v) ->
        let ls = Smt.Blast.bits b (Expr.var ctx name 8) in
        List.init 8 (fun i -> if Bits.get v i then ls.(i) else Sat.negate ls.(i)))
      [ ("gx", xv); ("gy", yv); ("gz", zv) ]
  in
  let expected = Bits.is_ones (Expr.eval (env_of env3) e) in
  Sat.solve ~assumptions:(Sat.pos g :: inputs) sat = expected
  && Sat.solve ~assumptions:(l :: inputs) sat = expected

let scope_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"Blast.clauses agrees with Blast.lit" arb_bool_env
         clauses_agree_with_lit);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"push; assert_; pop restores size" arb_bool_env
         (fun (e, _) ->
           let s = Solver.create ctx in
           Solver.assert_ s (Expr.ult (Expr.var ctx "gx" 8) (Expr.var ctx "gy" 8));
           let before = Solver.size s in
           Solver.push s;
           Solver.assert_ s e;
           let inner = Solver.size s in
           Solver.push s;
           Solver.assert_ s (Expr.bnot e);
           ignore (Solver.check s);
           Solver.pop s;
           let back_inner = Solver.size s in
           ignore (Solver.check s);
           Solver.pop s;
           back_inner = inner && Solver.size s = before));
  ]

(* a model captured under a scope keeps its values after the pop, when
   the variable numbers it read are handed to other terms *)
let test_captured_model_after_reuse () =
  let s = Solver.create ctx in
  let x = fresh 16 and y = fresh 16 in
  Solver.push s;
  Solver.assert_ s (Expr.eq x (Expr.of_int ctx ~width:16 0x1234));
  Alcotest.(check bool) "sat" true (Solver.check s = Solver.Sat);
  let m = Option.get (Solver.capture_model s) in
  let size = Solver.size s in
  Solver.pop s;
  Alcotest.(check bool) "a pop drops the model" true (Solver.capture_model s = None);
  Solver.push s;
  Solver.assert_ s (Expr.eq y (Expr.of_int ctx ~width:16 0xbeef));
  Alcotest.(check int) "y reuses x's variable numbers" size (Solver.size s);
  Alcotest.(check bool) "sat again" true (Solver.check s = Solver.Sat);
  Alcotest.(check check_bits) "x keeps its captured value" (Bits.of_int ~width:16 0x1234)
    (Solver.frozen_eval m x);
  Alcotest.(check check_bits) "y was not blasted at capture" (Bits.zero 16)
    (Solver.frozen_eval m y);
  Alcotest.(check check_bits) "the live model reads y" (Bits.of_int ~width:16 0xbeef)
    (Solver.model_var s (Expr.var_of y));
  Alcotest.(check check_bits) "and no longer x" (Bits.zero 16)
    (Solver.model_var s (Expr.var_of x));
  Solver.pop s

let () =
  Alcotest.run "smt"
    [
      ( "sat",
        [
          Alcotest.test_case "basic" `Quick test_sat_basic;
          Alcotest.test_case "unsat" `Quick test_sat_unsat;
          Alcotest.test_case "assumptions" `Quick test_sat_assumptions;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "coloring" `Quick test_sat_graph_coloring;
        ] );
      ( "expr",
        [
          Alcotest.test_case "folding" `Quick test_expr_fold;
          Alcotest.test_case "taint rules" `Quick test_expr_taint_rules;
          Alcotest.test_case "slice-concat" `Quick test_expr_slice_concat;
          Alcotest.test_case "eval" `Quick test_expr_eval;
        ] );
      ( "solver",
        [
          Alcotest.test_case "simple" `Quick test_solver_simple;
          Alcotest.test_case "unsat" `Quick test_solver_unsat;
          Alcotest.test_case "push-pop" `Quick test_solver_push_pop;
          Alcotest.test_case "mul inverse" `Quick test_solver_mul_inverse;
          Alcotest.test_case "div" `Quick test_solver_div;
          Alcotest.test_case "shift" `Quick test_solver_shift;
          Alcotest.test_case "assuming" `Quick test_solver_assuming;
          Alcotest.test_case "concat model" `Quick test_solver_concat_model;
          Alcotest.test_case "wide model readout" `Quick test_solver_wide_model;
          Alcotest.test_case "suggestion fallback" `Quick
            test_solver_suggestion_fallback;
          Alcotest.test_case "captured model after reuse" `Quick
            test_captured_model_after_reuse;
        ] );
      ("scopes", scope_props);
      ( "simplify",
        Alcotest.
          [
            test_case "concat equality" `Quick test_simplify_concat_eq;
            test_case "known ranges" `Quick test_simplify_known_range;
            test_case "ite nesting" `Quick test_simplify_ite_nesting;
            test_case "rewrite hits" `Quick test_simplify_counts_hits;
          ]
        @ simplify_props );
      ("differential", diff_props);
    ]
