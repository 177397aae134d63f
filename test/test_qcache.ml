(* Query-cache tests: support sets, independence slicing, the cache
   layers (SAT subsumption, model reuse, UNSAT supersets, syntactic
   witnesses), cross-run stores, and the end-to-end guarantee that
   caching never changes the emitted test suite while it keeps
   solver.checks at least 30% below the uncached run.

   The two property tests mirror the soundness obligations of the
   slicer:
   - [Expr.support] must agree with a naive free-symbol walk (the
     union-find is only as good as the supports it links);
   - partitioning a path condition into independence components must
     preserve satisfiability: the conjunction is SAT iff every
     component's conjunction is SAT. *)

module Bits = Bitv.Bits
module Expr = Smt.Expr
module Solver = Smt.Solver
module Qcache = Smt.Qcache
module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Runtime = Testgen.Runtime
module Testspec = Testgen.Testspec
module Randprog = Progzoo.Randprog

let v1model = Targets.V1model.target
let ctx = Expr.create_ctx ()

(* ------------------------------------------------------------------ *)
(* Property: support agrees with a naive recursive walk *)

let naive_support (e : Expr.t) : int array =
  let acc = Hashtbl.create 16 in
  let rec go (e : Expr.t) =
    match e.Expr.node with
    | Expr.Const _ -> ()
    | Expr.Var v -> Hashtbl.replace acc (Expr.sym_of_var v) ()
    | Expr.Taint id -> Hashtbl.replace acc (Expr.sym_of_taint id) ()
    | Expr.Not a -> go a
    | Expr.And (a, b)
    | Expr.Or (a, b)
    | Expr.Xor (a, b)
    | Expr.Add (a, b)
    | Expr.Sub (a, b)
    | Expr.Mul (a, b)
    | Expr.Udiv (a, b)
    | Expr.Urem (a, b)
    | Expr.Concat (a, b)
    | Expr.Eq (a, b)
    | Expr.Ult (a, b)
    | Expr.Slt (a, b)
    | Expr.Shl (a, b)
    | Expr.Lshr (a, b)
    | Expr.Ashr (a, b) ->
        go a;
        go b
    | Expr.Slice (a, _, _) -> go a
    | Expr.Ite (c, t, f) ->
        go c;
        go t;
        go f
  in
  go e;
  let syms = Array.of_seq (Hashtbl.to_seq_keys acc) in
  Array.sort compare syms;
  syms

(* random width-8 terms over three vars and a couple of taints (the
   smart constructors may fold taints away, which is fine — the naive
   walk sees the same folded term) *)
let gen_term =
  let open QCheck.Gen in
  let width = 8 in
  fix
    (fun self depth ->
      let leaf =
        oneof
          [
            (int_range 0 255 >|= fun n -> Expr.of_int ctx ~width n);
            oneofl
              [
                Expr.var ctx "qx" width; Expr.var ctx "qy" width; Expr.var ctx "qz" width;
              ];
            (int_range 0 1 >|= fun _ -> Expr.fresh_taint ctx width);
          ]
      in
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [
            leaf;
            map2 Expr.add sub sub;
            map2 Expr.logand sub sub;
            map2 Expr.logxor sub sub;
            map Expr.lognot sub;
            map2 Expr.mul sub sub;
            map3 (fun c a b -> Expr.ite (Expr.ult c a) a b) sub sub sub;
            map2
              (fun a b -> Expr.concat (Expr.slice a ~hi:3 ~lo:0) (Expr.slice b ~hi:7 ~lo:4))
              sub sub;
          ])
    3

let arb_term = QCheck.make ~print:Expr.to_string gen_term

let support_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"support agrees with naive walk" arb_term
       (fun e -> Expr.support e = naive_support e))

let support_memo_stable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"support is memo-stable" arb_term (fun e ->
         Expr.support e == Expr.support e))

(* ------------------------------------------------------------------ *)
(* Property: slicing a path condition then conjoining the slices is
   equisatisfiable with the original conjunction *)

let sat_of conds =
  let s = Solver.create ctx in
  List.iter (Solver.assert_ s) conds;
  Solver.check s = Solver.Sat

(* width-1 conditions over a pool of vars; a var pool per component
   candidate keeps genuinely independent groups frequent *)
let gen_conds =
  let open QCheck.Gen in
  let cond pool =
    let v = oneofl pool in
    oneof
      [
        map2 (fun a n -> Expr.eq a (Expr.of_int ctx ~width:8 n)) v (int_range 0 255);
        map2 (fun a n -> Expr.ult a (Expr.of_int ctx ~width:8 n)) v (int_range 1 255);
        map2 (fun a b -> Expr.eq (Expr.add a b) (Expr.of_int ctx ~width:8 7)) v v;
        map2 (fun a n -> Expr.lognot (Expr.eq a (Expr.of_int ctx ~width:8 n))) v
          (int_range 0 255);
      ]
  in
  let pool tag =
    List.init 3 (fun i -> Expr.var ctx (Printf.sprintf "qc_%s%d" tag i) 8)
  in
  let* a = list_size (int_range 0 4) (cond (pool "a")) in
  let* b = list_size (int_range 0 4) (cond (pool "b")) in
  let* c = list_size (int_range 0 4) (cond (pool "c")) in
  return (a @ b @ c)

let slicing_equisat_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"slice-then-conjoin equisatisfiable"
       (QCheck.make
          ~print:(fun cs -> String.concat " /\\ " (List.map Expr.to_string cs))
          gen_conds)
       (fun conds ->
         let comps = Qcache.components conds in
         List.length (List.concat comps) = List.length conds
         && sat_of conds = List.for_all sat_of comps))

(* The path conditions of the first [n] feasible paths in DFS order:
   the branch conditions taken along each path, newest first. *)
let path_conds ~n ~sat (ctx : Runtime.ctx) st0 =
  let found = ref [] in
  let full () = List.length !found >= n in
  let rec go conds st =
    if not (full ()) then
      match Testgen.Step.step ctx st with
      | exception Runtime.Exec_error _ -> ()
      | None -> found := conds :: !found
      | Some branches ->
          List.iter
            (fun (b : Runtime.branch) ->
              let conds' =
                match b.Runtime.br_cond with Some c -> c :: conds | None -> conds
              in
              if (not (full ())) && sat conds' then go conds' b.Runtime.br_state)
            branches
  in
  go [] st0;
  List.rev !found

(* the same property over *real* path conditions: the branch
   conditions of a feasible path, over fuzzed programs that vary their
   shape *)
let test_randprog_path_slices () =
  List.iter
    (fun seed ->
      let gen = Randprog.generate_for ~arch:Randprog.V1model ~seed in
      let ctx, st0 = Oracle.instantiate (Oracle.prepare v1model gen.Randprog.src) in
      let ectx = ctx.Runtime.ectx in
      let sat cs =
        let s = Solver.create ectx in
        List.iter (Solver.assert_ s) cs;
        Solver.check s = Solver.Sat
      in
      let paths = path_conds ~n:4 ~sat ctx st0 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: a path with several conditions" seed)
        true
        (List.exists (fun conds -> List.length conds >= 2) paths);
      List.iteri
        (fun k conds ->
          let comps = Qcache.components conds in
          Alcotest.(check int)
            (Printf.sprintf "seed %d prefix %d: partition covers" seed k)
            (List.length conds)
            (List.length (List.concat comps));
          Alcotest.(check bool)
            (Printf.sprintf "seed %d prefix %d: equisatisfiable" seed k)
            (sat conds)
            (List.for_all sat comps);
          (* an infeasible variant: negating one condition must keep
             the property (the broken component answers Unsat) *)
          match conds with
          | c0 :: rest when Expr.width c0 = 1 ->
              let neg = Expr.lognot c0 :: c0 :: rest in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d prefix %d: unsat variant" seed k)
                (sat neg)
                (List.for_all sat (Qcache.components neg))
          | _ -> ())
        paths)
    [ 1; 7; 23 ]

(* ------------------------------------------------------------------ *)
(* Cache-layer unit tests *)

let counters reg =
  let s = Obs.Registry.snapshot reg in
  ( Obs.Snapshot.get_int s "qcache.subsumed",
    Obs.Snapshot.get_int s "qcache.model_hits",
    Obs.Snapshot.get_int s "qcache.unsat_hits",
    Obs.Snapshot.get_int s "qcache.solver_checks_avoided" )

let test_unsat_replay () =
  (* an UNSAT slice recorded once answers the same question for free,
     both in this cache and — via the store — in a later one *)
  let ectx = Expr.create_ctx () in
  let x = Expr.var ectx "ux" 8 and y = Expr.var ectx "uy" 8 in
  let n k = Expr.of_int ectx ~width:8 k in
  let store = Qcache.create_store () in
  let reg = Obs.Registry.create () in
  let q = Qcache.create ~obs:reg ~store () in
  Qcache.push q (Expr.eq x (n 3));
  Qcache.push q (Expr.ult y (n 10));
  (* x = 3 ∧ x = 5 is unsat, and no derived/constant witness exists *)
  let c = Expr.eq x (n 5) in
  Alcotest.(check bool) "first ask misses" true (Qcache.check q c = Qcache.Unknown);
  Qcache.note_unsat q;
  Alcotest.(check bool) "repeat ask hits" true (Qcache.check q c = Qcache.Unsat_hit);
  let _, _, uh, _ = counters reg in
  Alcotest.(check int) "unsat_hits counted" 1 uh;
  (* a superset slice (same pair plus more of the component) also hits *)
  Qcache.push q (Expr.ult x (n 100));
  Alcotest.(check bool) "superset slice hits" true (Qcache.check q c = Qcache.Unsat_hit);
  Qcache.publish q;
  Alcotest.(check bool) "store holds published entries" true
    (Qcache.store_entries store > 0);
  (* a second run over the same program state: seeded, answers without
     any solver interaction *)
  let q2 = Qcache.create ~obs:(Obs.Registry.create ()) ~store () in
  Qcache.push q2 (Expr.eq x (n 3));
  Alcotest.(check bool) "fresh cache seeded from store" true
    (Qcache.check q2 c = Qcache.Unsat_hit)

let test_model_and_subsumption () =
  let ectx = Expr.create_ctx () in
  let x = Expr.var ectx "mx" 8 and y = Expr.var ectx "my" 8 in
  let n k = Expr.of_int ectx ~width:8 k in
  let reg = Obs.Registry.create () in
  let q = Qcache.create ~obs:reg () in
  (* a real probe check: x = 77 is sat; harvest the solver model *)
  let s = Solver.create ectx in
  Qcache.push q (Expr.eq x (n 77));
  Solver.assert_ s (Expr.eq x (n 77));
  Alcotest.(check bool) "probe sat" true (Solver.check s = Solver.Sat);
  Qcache.note_model q (Solver.capture_model s);
  (* the captured model (x=77, y free=0) satisfies x > 50 *)
  Alcotest.(check bool) "model answers a new question" true
    (Qcache.check q (Expr.ugt x (n 50)) = Qcache.Sat_hit);
  let _, mh, _, _ = counters reg in
  Alcotest.(check bool) "model_hits counted" true (mh >= 1);
  (* the model-hit recorded the slice as a SAT set: the identical
     question now short-circuits at the subsumption layer *)
  Alcotest.(check bool) "repeat hits subsumption" true
    (Qcache.check q (Expr.ugt x (n 50)) = Qcache.Sat_hit);
  let sub, _, _, _ = counters reg in
  Alcotest.(check bool) "subsumed counted" true (sub >= 1);
  (* a condition over an unrelated variable: the slice is {c} alone,
     and the syntactic witness finder answers without a model *)
  Alcotest.(check bool) "independent key match" true
    (Qcache.check q (Expr.eq y (n 123)) = Qcache.Sat_hit);
  Alcotest.(check bool) "witness_hits counted" true
    (Obs.Snapshot.get_int (Obs.Registry.snapshot reg) "qcache.witness_hits" >= 1)

let test_components_unit () =
  let ectx = Expr.create_ctx () in
  let a = Expr.var ectx "ka" 8 and b = Expr.var ectx "kb" 8 and c = Expr.var ectx "kc" 8 in
  let n k = Expr.of_int ectx ~width:8 k in
  let c1 = Expr.eq a (n 1) in
  let c2 = Expr.eq b (n 2) in
  let c3 = Expr.ult c (n 9) in
  let bridge = Expr.eq (Expr.add a b) (n 3) in
  (match Qcache.components [ c1; c2; c3 ] with
  | [ [ x1 ]; [ x2 ]; [ x3 ] ] ->
      Alcotest.(check bool) "three singletons, order kept" true
        (x1 == c1 && x2 == c2 && x3 == c3)
  | l -> Alcotest.failf "expected three singletons, got %d groups" (List.length l));
  match Qcache.components [ c1; c2; c3; bridge ] with
  | [ g1; [ x3 ] ] ->
      Alcotest.(check int) "bridge merges a and b groups" 3 (List.length g1);
      Alcotest.(check bool) "c stays alone" true (x3 == c3)
  | l -> Alcotest.failf "expected two groups, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* End-to-end: caching never changes the emitted suite *)

(* the gated programs: the paper's worked examples, the large programs
   of Tbl. 4a (the two branchiest capped at 400 tests) and a
   register-dependent 2-packet sequence *)
type program = {
  name : string;
  target : (module Testgen.Target_intf.S);
  src : string;
  opts : Runtime.options;
  config : Explore.config;
}

let program ?(target = v1model) ?(opts = Runtime.default_options) ?cap name src =
  let config = { Explore.default_config with Explore.max_tests = cap } in
  { name; target; src; opts; config }

let programs =
  [
    program "fig1a" Progzoo.Corpus.fig1a;
    program "fig1b" Progzoo.Corpus.fig1b;
    program "middleblock_2acl" ~cap:400
      (Progzoo.Generators.middleblock ~acl_stages:2 ());
    program "up4" (Progzoo.Generators.up4 ());
    program "switch6_tna" ~target:Targets.Tna.target ~cap:400
      (Progzoo.Generators.switch_tna ~stages:6 ());
    program "register_seq2"
      ~opts:{ Runtime.default_options with Runtime.seq_packets = 2 }
      Progzoo.Corpus.register_program;
  ]

(* the bit-identity tests also cover lpm_router *)
let identity_programs = program "lpm_router" Progzoo.Corpus.lpm_router :: programs

(* a program's emitted suite and its solver.checks under [f config] *)
let suite_of ?(f = Fun.id) p =
  let run = Oracle.generate ~opts:p.opts ~config:(f p.config) p.target p.src in
  ( List.map Testspec.to_string run.Oracle.result.Explore.tests,
    Obs.Snapshot.get_int
      (Obs.Registry.snapshot (Oracle.registry run))
      "solver.checks" )

(* every program with the cache off and on, run once and shared by the
   bit-identity test and the check-count bounds *)
let off_on =
  lazy
    (List.map
       (fun p ->
         let off = suite_of ~f:(fun c -> { c with Explore.query_cache = false }) p in
         (p, off, suite_of p))
       identity_programs)

let test_bit_identity () =
  List.iter
    (fun (p, (off, c_off), (on, c_on)) ->
      Alcotest.(check (list string)) (p.name ^ ": suite identical cache on/off") off on;
      Alcotest.(check bool) (p.name ^ ": cache did not add checks") true (c_on <= c_off))
    (Lazy.force off_on)

(* solver.checks per program with the cache on, as recorded when the
   cache landed; a run may exceed its figure by at most 2% *)
let checks_bound =
  [
    ("fig1a", 6);
    ("fig1b", 7);
    ("middleblock_2acl", 563);
    ("up4", 114);
    ("switch6_tna", 406);
    ("register_seq2", 4);
  ]

let test_check_bounds () =
  let within label bound checks =
    if float_of_int checks > float_of_int bound *. 1.02 then
      Alcotest.failf "%s: %d solver checks, bound %d (+2%%)" label checks bound
  in
  let runs =
    List.filter (fun (p, _, _) -> List.mem_assoc p.name checks_bound) (Lazy.force off_on)
  in
  List.iter (fun (p, _, (_, c)) -> within p.name (List.assoc p.name checks_bound) c) runs;
  let total f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let off = total (fun (_, (_, c), _) -> c) and on = total (fun (_, _, (_, c)) -> c) in
  let drop = 100.0 *. float_of_int (off - on) /. float_of_int off in
  if drop < 30.0 then
    Alcotest.failf "solver.checks %d (cache off) -> %d (cache on): drop %.1f%% < 30%%"
      off on drop

let () =
  Alcotest.run "qcache"
    [
      ( "support",
        [
          support_prop;
          support_memo_stable;
        ] );
      ( "slicing",
        [
          slicing_equisat_prop;
          Alcotest.test_case "components unit" `Quick test_components_unit;
          Alcotest.test_case "randprog path conditions" `Quick
            test_randprog_path_slices;
        ] );
      ( "layers",
        [
          Alcotest.test_case "unsat replay + store" `Quick test_unsat_replay;
          Alcotest.test_case "model + subsumption" `Quick test_model_and_subsumption;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "bit-identical on/off" `Quick test_bit_identity;
          Alcotest.test_case "solver.checks within bounds" `Slow test_check_bounds;
        ] );
    ]
