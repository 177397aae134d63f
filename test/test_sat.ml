(* Differential fuzzing of the CDCL SAT core.

   A tiny reference DPLL (unit propagation + chronological backtracking
   over the same literal encoding) decides each random CNF instance
   independently; the CDCL solver must agree on satisfiability, and
   every Sat answer must come with a model that satisfies all original
   clauses.  Random instances are drawn near the 3-SAT phase
   transition so both answers and real conflict/learning activity
   occur. *)

module Sat = Smt.Sat

(* ------------------------------------------------------------------ *)
(* Reference solver: plain recursive DPLL over clauses as literal
   lists.  Exponential, but instances stay <= 14 variables. *)

module Dpll = struct
  (* assignment: 0 unassigned / 1 true / 2 false, indexed by variable *)
  let lit_status assign l =
    let v = assign.(l lsr 1) in
    if v = 0 then 0 else if l land 1 = 0 then v else 3 - v

  (* None = conflict; Some remaining = simplified clause set *)
  let simplify assign clauses =
    let rec clause_status acc = function
      | [] -> if acc = [] then `Conflict else `Clause acc
      | l :: rest -> (
          match lit_status assign l with
          | 1 -> `Satisfied
          | 2 -> clause_status acc rest
          | _ -> clause_status (l :: acc) rest)
    in
    let rec go acc = function
      | [] -> Some acc
      | c :: rest -> (
          match clause_status [] c with
          | `Conflict -> None
          | `Satisfied -> go acc rest
          | `Clause c' -> go (c' :: acc) rest)
    in
    go [] clauses

  let rec search assign clauses =
    match simplify assign clauses with
    | None -> false
    | Some [] -> true
    | Some cs -> (
        (* unit propagation first *)
        match List.find_opt (fun c -> List.length c = 1) cs with
        | Some [ l ] ->
            assign.(l lsr 1) <- (if l land 1 = 0 then 1 else 2);
            let r = search assign cs in
            assign.(l lsr 1) <- 0;
            r
        | _ ->
            let l = List.hd (List.hd cs) in
            let v = l lsr 1 in
            assign.(v) <- 1;
            let r = search assign cs in
            assign.(v) <- 0;
            r
            ||
            (assign.(v) <- 2;
             let r = search assign cs in
             assign.(v) <- 0;
             r))

  let solve ~nvars clauses =
    if List.exists (fun c -> c = []) clauses then false
    else search (Array.make nvars 0) clauses
end

(* ------------------------------------------------------------------ *)
(* Random instances *)

let random_clause st nvars =
  (* mostly ternary (near the 3-SAT transition), with enough binary
     clauses to keep the dedicated binary watch layer busy and an
     occasional wide or unit clause *)
  let width =
    match Random.State.int st 20 with
    | 0 -> 1
    | 1 | 2 | 3 | 4 -> 2
    | 19 -> 4
    | _ -> 3
  in
  (* distinct variables within a clause, random polarity each *)
  let vars = Array.init nvars Fun.id in
  for i = nvars - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = vars.(i) in
    vars.(i) <- vars.(j);
    vars.(j) <- t
  done;
  List.init (min width nvars) (fun i ->
      if Random.State.bool st then Sat.pos vars.(i) else Sat.neg vars.(i))

let random_instance st =
  let nvars = 5 + Random.State.int st 11 in
  (* clause/variable ratio spread across the sat/unsat transition;
     enough clauses that sat instances still conflict and learn *)
  let ratio = 1.5 +. Random.State.float st 4.5 in
  let nclauses = max 3 (int_of_float (float_of_int nvars *. ratio)) in
  (nvars, List.init nclauses (fun _ -> random_clause st nvars))

let model_satisfies s clauses =
  List.for_all (fun c -> List.exists (fun l -> Sat.lit_value s l) c) clauses

let cdcl_solve ~nvars clauses =
  let s = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) clauses;
  (s, Sat.solve s)

(* ------------------------------------------------------------------ *)

let test_fuzz_vs_dpll () =
  let st = Random.State.make [| 0x5a7b3 |] in
  let sat_n = ref 0 and unsat_n = ref 0 in
  for i = 1 to 500 do
    let nvars, clauses = random_instance st in
    let expected = Dpll.solve ~nvars clauses in
    let s, got = cdcl_solve ~nvars clauses in
    if got <> expected then
      Alcotest.failf "instance %d (%d vars, %d clauses): cdcl=%b dpll=%b" i nvars
        (List.length clauses) got expected;
    if got then begin
      incr sat_n;
      if not (model_satisfies s clauses) then
        Alcotest.failf "instance %d: model violates a clause" i;
      (* an incremental re-solve must agree and still carry a model *)
      Sat.backtrack s;
      if not (Sat.solve s) then Alcotest.failf "instance %d: re-solve flipped to unsat" i;
      if not (model_satisfies s clauses) then
        Alcotest.failf "instance %d: re-solve model violates a clause" i
    end
    else incr unsat_n
  done;
  (* the corpus must actually exercise both answers *)
  Alcotest.(check bool) "found sat instances" true (!sat_n > 100);
  Alcotest.(check bool) "found unsat instances" true (!unsat_n > 100)

(* The clause normaliser's corner cases: literals repeated within a
   clause, complementary pairs (a tautology), and literals over
   variables that earlier unit clauses fixed at level 0 (dropping the
   clause when true, the literal when false), all in unsorted order. *)
let shuffle st l =
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

let messy_instance st =
  let nvars = 5 + Random.State.int st 11 in
  let ratio = 1.5 +. Random.State.float st 4.5 in
  let nclauses = max 3 (int_of_float (float_of_int nvars *. ratio)) in
  let lit v = if Random.State.bool st then Sat.pos v else Sat.neg v in
  let units = List.init (Random.State.int st 4) (fun _ -> [ lit (Random.State.int st nvars) ]) in
  let fixed = Array.of_list (List.concat units) in
  let messy c =
    let pick () = List.nth c (Random.State.int st (List.length c)) in
    let c = if Random.State.int st 3 = 0 then pick () :: c else c in
    let c = if Random.State.int st 8 = 0 then Sat.negate (pick ()) :: c else c in
    let c =
      if Array.length fixed > 0 && Random.State.int st 3 = 0 then
        let u = fixed.(Random.State.int st (Array.length fixed)) in
        (if Random.State.bool st then u else Sat.negate u) :: c
      else c
    in
    shuffle st c
  in
  (nvars, units @ List.init nclauses (fun _ -> messy (random_clause st nvars)))

let tautology c = List.exists (fun l -> List.mem (Sat.negate l) c) c

(* a tautology may leave its variable unconstrained, hence unassigned *)
let model_satisfies_nontrivial s clauses =
  model_satisfies s (List.filter (fun c -> not (tautology c)) clauses)

(* the same instance as the normaliser should see it: each clause
   sorted and deduplicated, tautologies dropped *)
let normalised clauses =
  List.filter_map
    (fun c ->
      let c = List.sort_uniq compare c in
      if tautology c then None else Some c)
    clauses

let test_fuzz_messy_clauses () =
  let st = Random.State.make [| 0x3c1a9 |] in
  let sat_n = ref 0 and unsat_n = ref 0 in
  for i = 1 to 500 do
    let nvars, clauses = messy_instance st in
    let expected = Dpll.solve ~nvars clauses in
    let s, got = cdcl_solve ~nvars clauses in
    if got <> expected then
      Alcotest.failf "messy instance %d (%d vars, %d clauses): cdcl=%b dpll=%b" i nvars
        (List.length clauses) got expected;
    (* normalising is invisible: a solver fed the normalised clauses
       searches exactly the same way *)
    let s', _ = cdcl_solve ~nvars (normalised clauses) in
    if Sat.counters s <> Sat.counters s' || Sat.snapshot s <> Sat.snapshot s' then
      Alcotest.failf "messy instance %d: search differs from the normalised instance's" i;
    if got then begin
      incr sat_n;
      if not (model_satisfies_nontrivial s clauses) then
        Alcotest.failf "messy instance %d: model violates a clause" i;
      Sat.backtrack s;
      if not (Sat.solve s) then
        Alcotest.failf "messy instance %d: re-solve flipped to unsat" i;
      if not (model_satisfies_nontrivial s clauses) then
        Alcotest.failf "messy instance %d: re-solve model violates a clause" i
    end
    else incr unsat_n
  done;
  Alcotest.(check bool) "found sat instances" true (!sat_n > 100);
  Alcotest.(check bool) "found unsat instances" true (!unsat_n > 100)

(* One instance fed to its own solver clause by clause.  Its variables
   are allocated on first use with unused ones in between, so the
   solver's arrays and watch tables grow while it holds clauses. *)
type feed = {
  f_solver : Sat.t;
  f_nvars : int;
  f_clauses : int list array;
  f_map : int array;  (* instance variable -> solver variable, -1 before use *)
  mutable f_added : int;
}

let feed (nvars, clauses) =
  {
    f_solver = Sat.create ();
    f_nvars = nvars;
    f_clauses = Array.of_list clauses;
    f_map = Array.make nvars (-1);
    f_added = 0;
  }

let feed_lit st f l =
  let v = l lsr 1 in
  if f.f_map.(v) < 0 then begin
    for _ = 1 to Random.State.int st 16 do
      ignore (Sat.new_var f.f_solver)
    done;
    f.f_map.(v) <- Sat.new_var f.f_solver
  end;
  (2 * f.f_map.(v)) lor (l land 1)

(* adds the feed's next clause, solves, and checks the answer (and the
   model) against the reference on the clauses added so far *)
let feed_step st f =
  let c = f.f_clauses.(f.f_added) in
  f.f_added <- f.f_added + 1;
  let s = f.f_solver in
  Sat.backtrack s;
  Sat.add_clause s (List.map (feed_lit st f) c);
  let prefix = Array.to_list (Array.sub f.f_clauses 0 f.f_added) in
  let expected = Dpll.solve ~nvars:f.f_nvars prefix in
  let got = Sat.solve s in
  if got <> expected then
    Alcotest.failf "after %d clauses: cdcl=%b dpll=%b" f.f_added got expected;
  if
    got
    && not
         (List.for_all
            (fun c -> tautology c || List.exists (fun l -> Sat.lit_value s (feed_lit st f l)) c)
            prefix)
  then Alcotest.failf "after %d clauses: model violates a clause" f.f_added

(* Two solvers alive at once, clauses added and solves run alternately:
   each must agree with the reference at every step, so a write into one
   solver's empty watch-list sentinel cannot go unnoticed. *)
let test_two_solvers_interleaved () =
  let st = Random.State.make [| 0x2b51 |] in
  for _ = 1 to 40 do
    let a = feed (messy_instance st) and b = feed (messy_instance st) in
    let left f = f.f_added < Array.length f.f_clauses in
    while left a || left b do
      if left a then feed_step st a;
      if left b then feed_step st b
    done
  done

(* Models enumerated on a persistent solver (blocking each one over a
   fixed variable window) must keep satisfying every original clause
   while the learnt database and the saved/target phases accumulate
   across solves. *)
let test_model_survives_reduction () =
  let st = Random.State.make [| 0xbeef1 |] in
  let exercised = ref 0 and attempts = ref 0 in
  while !exercised < 20 && !attempts < 600 do
    incr attempts;
    let nvars = 14 + Random.State.int st 8 in
    let nclauses = int_of_float (float_of_int nvars *. 3.5) in
    let clauses = List.init nclauses (fun _ -> random_clause st nvars) in
    let s, got = cdcl_solve ~nvars clauses in
    if got then begin
      (* enumerate models, blocking each over the first 8 variables *)
      let window = min 8 nvars in
      let models = ref 0 and more = ref true in
      while !more && !models < 300 do
        incr models;
        if not (model_satisfies s clauses) then
          Alcotest.failf "attempt %d, model %d: violates a clause" !attempts !models;
        let blocking =
          List.init window (fun v -> if Sat.value s v then Sat.neg v else Sat.pos v)
        in
        Sat.backtrack s;
        Sat.add_clause s blocking;
        more := Sat.solve s
      done;
      (* enumeration beyond the first model re-solves with learnt
         clauses carried over *)
      if !models > 1 && (Sat.counters s).Sat.c_conflicts > 0 then incr exercised
    end
  done;
  if !exercised < 20 then
    Alcotest.failf "model enumeration rarely exercised: %d/%d attempts" !exercised
      !attempts

(* Pigeonhole clauses (n+1 pigeons, n holes), each guarded by [¬g] when
   [guard] is given so the instance is active only under [g]. *)
let pigeonhole ?guard s ~holes =
  let pigeons = holes + 1 in
  let add c = Sat.add_clause s (match guard with Some g -> Sat.neg g :: c | None -> c) in
  let var = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    add (List.init holes (fun h -> Sat.pos var.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for q = p + 1 to pigeons - 1 do
        add [ Sat.neg var.(p).(h); Sat.neg var.(q).(h) ]
      done
    done
  done

(* Deterministic pigeonhole instance: unsat and conflict-heavy on a
   fixed input. *)
let test_pigeonhole () =
  let s = Sat.create () in
  pigeonhole s ~holes:5;
  Alcotest.(check bool) "php unsat" false (Sat.solve s);
  let c = Sat.counters s in
  Alcotest.(check bool) "conflicts occurred" true (c.Sat.c_conflicts > 0)

(* PHP(10,9) needs tens of thousands of conflicts: one solve stops at
   the budget, and the same solver then answers an easy query (the
   instance sits behind an activation literal, the way the term-level
   solver guards its scopes). *)
let test_budget () =
  let s = Sat.create () in
  let g = Sat.new_var s in
  pigeonhole s ~guard:g ~holes:9;
  (match Sat.solve ~assumptions:[ Sat.pos g ] s with
  | r -> Alcotest.failf "PHP(10,9) answered %b within the budget" r
  | exception Sat.Budget_exhausted -> ());
  Alcotest.(check int) "stopped at the budget" Sat.conflict_budget
    (Sat.counters s).Sat.c_conflicts;
  (* back at level 0: clauses may be added, and an easy query answers *)
  let x = Sat.new_var s in
  Sat.add_clause s [ Sat.pos x; Sat.pos g ];
  Alcotest.(check bool) "easy query sat" true (Sat.solve ~assumptions:[ Sat.neg g ] s);
  Alcotest.(check bool) "model honours the new clause" true (Sat.value s x)

(* Scopes the way the term-level solver uses them: a scope marks the
   solver's variable and clause counts, allocates an activation
   variable [g], and adds clauses guarded by [¬g] over old and fresh
   variables, plus definitions [f <-> a ∧ b] of fresh variables over
   live ones.  Solves assume every open scope's [g], innermost first,
   sometimes with extra assumption literals; a pop truncates to the
   scope's mark.  Each verdict must match the reference on the clauses
   that survive, each model must satisfy them, and every truncation
   must land exactly on its mark, with two watchers per surviving
   clause. *)
type scope = {
  sc_vars : int;
  sc_clauses : int;
  sc_guard : int;
  mutable sc_cnf : int list list;  (* what the scope added, guarded *)
}

let test_scoped_truncation () =
  let st = Random.State.make [| 0x7c0de |] in
  let sat_n = ref 0 and unsat_n = ref 0 and truncations = ref 0 and reused = ref 0 in
  let conflicts = ref 0 and learnt = ref 0 in
  for stream = 1 to 200 do
    let s = Sat.create () in
    let base_vars = 4 + Random.State.int st 4 in
    for _ = 1 to base_vars do
      ignore (Sat.new_var s)
    done;
    let base = List.init (Random.State.int st (2 * base_vars)) (fun _ -> random_clause st base_vars) in
    List.iter (Sat.add_clause s) base;
    let scopes = ref [] in
    let high = ref (Sat.nvars s) in
    let live_cnf () = base @ List.concat_map (fun sc -> sc.sc_cnf) !scopes in
    let lit_over n = if Random.State.bool st then Sat.pos (Random.State.int st n) else Sat.neg (Random.State.int st n) in
    let add sc c =
      Sat.backtrack s;
      Sat.add_clause s c;
      sc.sc_cnf <- c :: sc.sc_cnf
    in
    let fresh () =
      let v = Sat.new_var s in
      if v < !high then incr reused;
      high := max !high (v + 1);
      v
    in
    for step = 1 to 40 do
      match (Random.State.int st 10, !scopes) with
      | (0 | 1 | 2), _ when Sat.nvars s < 16 ->
          Sat.backtrack s;
          let sc_vars = Sat.nvars s and sc_clauses = Sat.nclauses s in
          let g = fresh () in
          scopes := { sc_vars; sc_clauses; sc_guard = g; sc_cnf = [] } :: !scopes
      | (3 | 4), sc :: rest ->
          Sat.truncate s ~nvars:sc.sc_vars ~nclauses:sc.sc_clauses;
          incr truncations;
          if Sat.nvars s <> sc.sc_vars || Sat.nclauses s <> sc.sc_clauses then
            Alcotest.failf "stream %d, step %d: truncated to %d vars / %d clauses, mark %d / %d"
              stream step (Sat.nvars s) (Sat.nclauses s) sc.sc_vars sc.sc_clauses;
          (* no retired clause keeps a watcher *)
          if Sat.watchers s <> 2 * Sat.nclauses s then
            Alcotest.failf "stream %d, step %d: %d watchers for %d surviving clauses" stream step
              (Sat.watchers s) (Sat.nclauses s);
          scopes := rest
      | (5 | 6), sc :: _ ->
          (* guarded clauses over old and, sometimes, fresh variables *)
          for _ = 0 to 2 + Random.State.int st 6 do
            let n = Sat.nvars s in
            let extra = if Random.State.int st 3 = 0 && n < 20 then [ Sat.pos (fresh ()) ] else [] in
            let c = random_clause st n in
            add sc ((Sat.neg sc.sc_guard :: extra) @ c)
          done
      | 7, sc :: _ when Sat.nvars s < 20 ->
          (* a Tseitin definition of a fresh variable: unguarded *)
          let n = Sat.nvars s in
          let a = lit_over n and b = lit_over n in
          let f = fresh () in
          add sc [ Sat.neg f; a ];
          add sc [ Sat.neg f; b ];
          add sc [ Sat.pos f; Sat.negate a; Sat.negate b ]
      | _ ->
          let n = Sat.nvars s in
          let extra = List.init (Random.State.int st 3) (fun _ -> lit_over n) in
          let assumptions = List.map (fun sc -> Sat.pos sc.sc_guard) !scopes @ extra in
          let cnf = live_cnf () in
          let expected = Dpll.solve ~nvars:n (List.map (fun l -> [ l ]) assumptions @ cnf) in
          Sat.backtrack s;
          let got = Sat.solve ~assumptions s in
          incr (if got then sat_n else unsat_n);
          if got <> expected then
            Alcotest.failf "stream %d, step %d (%d vars, depth %d): cdcl=%b dpll=%b" stream step n
              (List.length !scopes) got expected;
          if got && not (model_satisfies_nontrivial s cnf && List.for_all (Sat.lit_value s) assumptions)
          then Alcotest.failf "stream %d, step %d: model violates a surviving clause" stream step
    done;
    let c = Sat.counters s in
    conflicts := !conflicts + c.Sat.c_conflicts;
    learnt := !learnt + c.Sat.c_learnt_clauses
  done;
  (* the stream must exercise what truncation has to survive *)
  Alcotest.(check bool) (Printf.sprintf "%d sat verdicts" !sat_n) true (!sat_n > 500);
  Alcotest.(check bool) (Printf.sprintf "%d unsat verdicts" !unsat_n) true (!unsat_n > 200);
  Alcotest.(check bool) (Printf.sprintf "%d truncations" !truncations) true (!truncations > 500);
  Alcotest.(check bool) (Printf.sprintf "%d variables reused" !reused) true (!reused > 500);
  Alcotest.(check bool) (Printf.sprintf "%d conflicts" !conflicts) true (!conflicts > 200);
  Alcotest.(check bool) (Printf.sprintf "%d learnt clauses" !learnt) true (!learnt > 50)

let () =
  Alcotest.run "sat"
    [
      ( "fuzz",
        [
          Alcotest.test_case "cdcl-vs-dpll-500" `Quick test_fuzz_vs_dpll;
          Alcotest.test_case "cdcl-vs-dpll-500-messy-clauses" `Quick test_fuzz_messy_clauses;
          Alcotest.test_case "two-solvers-interleaved" `Quick test_two_solvers_interleaved;
        ] );
      ( "reduce_db",
        [
          Alcotest.test_case "model-survives-reduction" `Quick
            test_model_survives_reduction;
          Alcotest.test_case "pigeonhole-reduces" `Quick test_pigeonhole;
        ] );
      ("budget", [ Alcotest.test_case "php-10-9-gives-up" `Quick test_budget ]);
      ("scopes", [ Alcotest.test_case "truncation-vs-dpll" `Quick test_scoped_truncation ]);
    ]
