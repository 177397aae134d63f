(* CDCL SAT solver in the MiniSat tradition.

   Value encoding per variable: 0 = unassigned, 1 = true, 2 = false.
   A literal l is "lit of var (l lsr 1)", negated iff (l land 1) = 1.

   Hot-path design notes:
   - Watch lists carry a blocking literal per watcher; a satisfied
     blocker skips the watcher without touching the clause at all.
   - Binary clauses live in a dedicated watch layer that stores the
     implied literal inline, so propagating them reads one int.
   - 1UIP clauses are shrunk by recursive self-subsumption before
     being recorded, and learnt clauses are kept for good: the path
     constraints this solver sees are easy (at most about a hundred
     conflicts per solve), so the database is never reduced.
   - A solve restarts every [restart_interval] conflicts.
   - Phase saving keeps the last assigned polarity per variable, and
     the full assignment of the last satisfying model is replayed as
     the preferred phase of later solves (target phases).
   - One solve gives up after [conflict_budget] conflicts, so a hard
     query costs a bounded amount of work.

   Memory layout (most variables are blasted but never constrained, and
   every propagation stores a reason, so allocation is kept off the hot
   paths):
   - Every per-variable array has the same capacity and grows in one
     step, so allocating a variable is a bounds check and an increment;
     slots past [nvars] keep their initial values until used.
   - A literal gets its own watch list on its first watch.  Until then
     its slot holds the solver's empty sentinel, which is never written
     (a per-solver sentinel, since solvers run on several domains).
   - A reason is a clause, or [no_reason] for decisions, assumptions and
     level-0 units.  It is read only while its variable is assigned, so
     backtracking leaves stale reasons in place.
   - A model is copied into the target phases with one blit, and
     snapshots hold one byte per variable.

   Scopes: every attached clause, problem or learnt, is logged, so
   [truncate] can take the solver back to an earlier (variable, clause)
   mark.  Retired clauses are marked in place and their watchers are
   swept from the surviving literals' lists at once, in list order, so
   [propagate] only ever meets live clauses; the truncated variables'
   slots are reset, and their watch lists emptied in place, so
   [new_var] reuses both.  See DESIGN.md ("Solver internals") for why
   what survives stays sound. *)

(* a clause is its literal array; [propagate] reorders it in place so
   that the watched literals come first *)
type clause = int array

(* the reason of a decision, an assumption or a level-0 unit; every
   real reason has at least one literal *)
let no_reason : clause = [||]

(* the first literal of a retired clause: no literal is negative *)
let retired = -1

(* Growable array *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 16 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  (* indices are always < len by construction *)
  let get v i = Array.unsafe_get v.data i
  let set v i x = Array.unsafe_set v.data i x
  let len v = v.len
  let shrink v n = v.len <- n
  let pop v = v.len <- v.len - 1; Array.unsafe_get v.data v.len
end

(* Watch list: parallel arrays of clause and companion literal, scanned
   and compacted in place.  For long clauses the companion is a
   blocking literal (any other literal of the clause); for the binary
   layer it is the implied literal. *)
module Wl = struct
  type t = { mutable cls : clause array; mutable lit : int array; mutable len : int }

  (* the empty sentinel; [push] must never be applied to it *)
  let empty () = { cls = [||]; lit = [||]; len = 0 }

  (* a fresh list holding one watcher *)
  let singleton c l = { cls = Array.make 4 c; lit = Array.make 4 l; len = 1 }

  let push w c l =
    if w.len = Array.length w.cls then begin
      let n = 2 * w.len in
      let cls = Array.make n no_reason and lit = Array.make n 0 in
      Array.blit w.cls 0 cls 0 w.len;
      Array.blit w.lit 0 lit 0 w.len;
      w.cls <- cls;
      w.lit <- lit
    end;
    w.cls.(w.len) <- c;
    w.lit.(w.len) <- l;
    w.len <- w.len + 1
end

type t = {
  mutable nvars : int;
  mutable cap : int; (* length of every per-variable array *)
  mutable ok : bool;
  (* per-literal watch lists (2 * cap slots): long clauses and a binary
     layer; a literal never watched holds [empty] *)
  mutable watches : Wl.t array;
  mutable bin_watches : Wl.t array;
  empty : Wl.t;
  (* per-variable state *)
  mutable assign : int array; (* 0/1/2 *)
  mutable level : int array;
  mutable reason : clause array; (* [no_reason] when none *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase *)
  mutable target : int array; (* phase of the last model: 0 none / 1 / 2 *)
  mutable heap_pos : int array; (* -1 when absent *)
  (* VSIDS heap of variables ordered by activity *)
  heap : int Vec.t;
  mutable var_inc : float;
  (* trail *)
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* every attached clause, problem and learnt, in attachment order;
     [truncate] retires a suffix *)
  clauses : clause Vec.t;
  (* vars occurring in at least one clause; only these are decided —
     unconstrained variables may take any value, so leaving them
     unassigned is sound and keeps solves proportional to the active
     instance rather than to every variable ever allocated *)
  mutable constrained : bool array;
  (* stats *)
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable restarts : int;
  mutable learnt_clauses : int;
  mutable learnt_literals : int;
  mutable minimised_literals : int;
  (* scratch *)
  mutable seen : bool array;
  mutable buf : int array; (* [add_clause]'s sorted literals *)
}

type counters = {
  c_decisions : int;
  c_propagations : int;
  c_conflicts : int;
  c_restarts : int;
  c_learnt_clauses : int;
  c_learnt_literals : int;
  c_minimised_literals : int;
}

let initial_cap = 64

let create () =
  let empty = Wl.empty () in
  let cap = initial_cap in
  {
    nvars = 0;
    cap;
    ok = true;
    watches = Array.make (2 * cap) empty;
    bin_watches = Array.make (2 * cap) empty;
    empty;
    assign = Array.make cap 0;
    level = Array.make cap 0;
    reason = Array.make cap no_reason;
    activity = Array.make cap 0.0;
    polarity = Array.make cap false;
    target = Array.make cap 0;
    heap_pos = Array.make cap (-1);
    heap = Vec.create 0;
    var_inc = 1.0;
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    clauses = Vec.create no_reason;
    constrained = Array.make cap false;
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learnt_clauses = 0;
    learnt_literals = 0;
    minimised_literals = 0;
    seen = Array.make cap false;
    buf = Array.make 8 0;
  }

let pos v = 2 * v
let neg v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let sign l = l land 1 = 1

let nvars s = s.nvars
let nclauses s = Vec.len s.clauses

let counters s =
  {
    c_decisions = s.decisions;
    c_propagations = s.propagations;
    c_conflicts = s.conflicts;
    c_restarts = s.restarts;
    c_learnt_clauses = s.learnt_clauses;
    c_learnt_literals = s.learnt_literals;
    c_minimised_literals = s.minimised_literals;
  }

(* value of literal: 0 undef, 1 true, 2 false *)
let lit_val s l =
  let a = Array.unsafe_get s.assign (l lsr 1) in
  if a = 0 then 0 else if l land 1 = 1 then 3 - a else a

(* [a] extended to [n] slots, the new ones holding [dummy] *)
let extend a n dummy =
  let d = Array.make n dummy in
  Array.blit a 0 d 0 (Array.length a);
  d

(* -------------------- VSIDS heap (max-heap on activity) ------------ *)

let heap_lt s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let a = Vec.get s.heap i and b = Vec.get s.heap j in
  Vec.set s.heap i b;
  Vec.set s.heap j a;
  s.heap_pos.(a) <- j;
  s.heap_pos.(b) <- i

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s (Vec.get s.heap i) (Vec.get s.heap p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let n = Vec.len s.heap in
  let best = ref i in
  if l < n && heap_lt s (Vec.get s.heap l) (Vec.get s.heap !best) then best := l;
  if r < n && heap_lt s (Vec.get s.heap r) (Vec.get s.heap !best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap_pos.(v) <- Vec.len s.heap;
    Vec.push s.heap v;
    heap_up s (Vec.len s.heap - 1)
  end

let heap_remove_max s =
  let top = Vec.get s.heap 0 in
  let last = Vec.pop s.heap in
  s.heap_pos.(top) <- -1;
  if Vec.len s.heap > 0 then begin
    Vec.set s.heap 0 last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  top

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* removes [v], which is in the heap: the last element takes its place
   and moves to where it belongs *)
let heap_remove s v =
  let i = s.heap_pos.(v) in
  let last = Vec.pop s.heap in
  s.heap_pos.(v) <- -1;
  if last <> v then begin
    Vec.set s.heap i last;
    s.heap_pos.(last) <- i;
    heap_down s i;
    heap_up s s.heap_pos.(last)
  end

(* -------------------- variable management -------------------------- *)

(* doubles the capacity of every per-variable and per-literal array;
   the new slots hold the values a fresh variable starts with *)
let grow s =
  let n = 2 * s.cap in
  s.assign <- extend s.assign n 0;
  s.level <- extend s.level n 0;
  s.reason <- extend s.reason n no_reason;
  s.activity <- extend s.activity n 0.0;
  s.polarity <- extend s.polarity n false;
  s.target <- extend s.target n 0;
  s.heap_pos <- extend s.heap_pos n (-1);
  s.seen <- extend s.seen n false;
  s.constrained <- extend s.constrained n false;
  s.watches <- extend s.watches (2 * n) s.empty;
  s.bin_watches <- extend s.bin_watches (2 * n) s.empty;
  s.cap <- n

(* not inserted into the decision heap until it appears in a clause *)
let new_var s =
  let v = s.nvars in
  if v = s.cap then grow s;
  s.nvars <- v + 1;
  v

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* -------------------- trail ---------------------------------------- *)

let decision_level s = Vec.len s.trail_lim

let enqueue s l reason =
  let v = var_of l in
  s.assign.(v) <- (if sign l then 2 else 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let mark_constrained s v =
  if not s.constrained.(v) then begin
    s.constrained.(v) <- true;
    heap_insert s v
  end

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.len s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = var_of l in
      s.assign.(v) <- 0;
      s.polarity.(v) <- not (sign l);
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.len s.trail
  end

(* -------------------- clauses -------------------------------------- *)

(* appends a watcher to literal [l]'s list in [table], giving [l] a
   list of its own on its first watch *)
let watch_in s table l c companion =
  let w = Array.unsafe_get table l in
  if w == s.empty then table.(l) <- Wl.singleton c companion else Wl.push w c companion

let watch s l c blocker = watch_in s s.watches l c blocker

let attach s c =
  Vec.push s.clauses c;
  (* watch the negations of the first two literals; binary clauses go
     to the dedicated layer that stores the implied literal inline *)
  if Array.length c = 2 then begin
    watch_in s s.bin_watches (negate c.(0)) c c.(1);
    watch_in s s.bin_watches (negate c.(1)) c c.(0)
  end
  else begin
    watch s (negate c.(0)) c c.(1);
    watch s (negate c.(1)) c c.(0)
  end

exception Conflict of clause

let propagate s =
  try
    while s.qhead < Vec.len s.trail do
      let p = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      (* binary layer: one value read per clause, no clause access on
         the common satisfied path *)
      let bw = Array.unsafe_get s.bin_watches p in
      let i = ref 0 in
      while !i < bw.Wl.len do
        let o = Array.unsafe_get bw.Wl.lit !i in
        let v = lit_val s o in
        if v = 1 then incr i
        else begin
          let c = Array.unsafe_get bw.Wl.cls !i in
          if v = 2 then begin
            s.qhead <- Vec.len s.trail;
            raise (Conflict c)
          end
          else begin
            (* conflict analysis expects the propagated literal first *)
            if c.(0) <> o then begin
              c.(0) <- o;
              c.(1) <- negate p
            end;
            enqueue s o c;
            incr i
          end
        end
      done;
      (* long clauses *)
      let ws = Array.unsafe_get s.watches p in
      let n = ws.Wl.len in
      let j = ref 0 in
      (* i scans, j writes back retained watches *)
      let i = ref 0 in
      while !i < n do
        let blocker = Array.unsafe_get ws.Wl.lit !i in
        if lit_val s blocker = 1 then begin
          (* blocking literal satisfied: clause untouched *)
          Array.unsafe_set ws.Wl.cls !j (Array.unsafe_get ws.Wl.cls !i);
          Array.unsafe_set ws.Wl.lit !j blocker;
          incr i;
          incr j
        end
        else begin
          let c = Array.unsafe_get ws.Wl.cls !i in
          incr i;
          (* make sure the false literal is c.(1) *)
          let falsel = negate p in
          if c.(0) = falsel then begin
            c.(0) <- c.(1);
            c.(1) <- falsel
          end;
          let first = c.(0) in
          if first <> blocker && lit_val s first = 1 then begin
            (* clause satisfied; keep watch, remember the witness *)
            Array.unsafe_set ws.Wl.cls !j c;
            Array.unsafe_set ws.Wl.lit !j first;
            incr j
          end
          else begin
            (* look for a new literal to watch *)
            let len = Array.length c in
            let k = ref 2 in
            let found = ref false in
            while (not !found) && !k < len do
              if lit_val s c.(!k) <> 2 then begin
                c.(1) <- c.(!k);
                c.(!k) <- falsel;
                watch s (negate c.(1)) c first;
                found := true
              end;
              incr k
            done;
            if not !found then begin
              (* unit or conflicting *)
              Array.unsafe_set ws.Wl.cls !j c;
              Array.unsafe_set ws.Wl.lit !j first;
              incr j;
              if lit_val s first = 2 then begin
                (* conflict: copy remaining watches and raise *)
                while !i < n do
                  Array.unsafe_set ws.Wl.cls !j (Array.unsafe_get ws.Wl.cls !i);
                  Array.unsafe_set ws.Wl.lit !j (Array.unsafe_get ws.Wl.lit !i);
                  incr i;
                  incr j
                done;
                ws.Wl.len <- !j;
                s.qhead <- Vec.len s.trail;
                raise (Conflict c)
              end
              else enqueue s first c
            end
          end
        end
      done;
      (* a list that kept every watcher is left alone: it may be the
         empty sentinel, which is never written *)
      if !j < n then ws.Wl.len <- !j
    done;
    None
  with Conflict c -> Some c

(* inserts [lits] into the sorted prefix [buf.(0 .. i - 1)] *)
let rec insertion_sort buf i = function
  | [] -> ()
  | l :: rest ->
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get buf !j > l do
        Array.unsafe_set buf (!j + 1) (Array.unsafe_get buf !j);
        decr j
      done;
      Array.unsafe_set buf (!j + 1) l;
      insertion_sort buf (i + 1) rest

(* Normalises on ints: the literals are insertion-sorted into [buf]
   (clauses are short), duplicates are skipped, and the clause is
   dropped if it holds a complementary pair (adjacent once sorted, as
   [2v] and [2v + 1]) or a literal true at level 0; literals false at
   level 0 are filtered out.  The survivors, ascending, are exactly what
   sorting, deduplicating and filtering the list gives. *)
let add_clause s lits =
  if s.ok then begin
    assert (decision_level s = 0);
    let n = List.length lits in
    if Array.length s.buf < n then s.buf <- Array.make (2 * n) 0;
    let buf = s.buf in
    insertion_sort buf 0 lits;
    (* survivors are compacted to the front of [buf] *)
    let k = ref 0 and drop = ref false and i = ref 0 in
    while (not !drop) && !i < n do
      let l = Array.unsafe_get buf !i in
      if !i > 0 && l = Array.unsafe_get buf (!i - 1) then ()
      else if !i > 0 && l = Array.unsafe_get buf (!i - 1) lxor 1 && l land 1 = 1 then
        drop := true
      else begin
        match lit_val s l with
        | 1 -> drop := true
        | 2 -> ()
        | _ ->
            Array.unsafe_set buf !k l;
            incr k
      end;
      incr i
    done;
    if not !drop then begin
      for i = 0 to !k - 1 do
        mark_constrained s (var_of (Array.unsafe_get buf i))
      done;
      match !k with
      | 0 -> s.ok <- false
      | 1 ->
          enqueue s buf.(0) no_reason;
          if propagate s <> None then s.ok <- false
      | k -> attach s (Array.sub buf 0 k)
    end
  end

(* -------------------- conflict analysis ---------------------------- *)

let abstract_level s v = 1 lsl (s.level.(v) land 31)

(* [lit_redundant s abstract_levels to_clear l] — the learnt literal
   [l] is implied by the rest of the clause: walking its implication
   graph upward only ever terminates in already-seen literals.
   Newly marked vars are recorded in [to_clear] (kept marked as a
   memo for the remaining literals) and unmarked locally on failure. *)
let lit_redundant s abstract_levels to_clear l =
  let marked_here = ref [] in
  let rec go stack =
    match stack with
    | [] -> true
    | q :: rest ->
        let c = s.reason.(var_of q) in
        if c == no_reason then false
        else begin
          let ok = ref true in
          let stack = ref rest in
          let len = Array.length c in
          let k = ref 1 in
          while !ok && !k < len do
            let l' = c.(!k) in
            let v = var_of l' in
            if (not s.seen.(v)) && s.level.(v) > 0 then begin
              if s.reason.(v) != no_reason && abstract_level s v land abstract_levels <> 0
              then begin
                s.seen.(v) <- true;
                marked_here := v :: !marked_here;
                to_clear := v :: !to_clear;
                stack := l' :: !stack
              end
              else ok := false
            end;
            incr k
          done;
          if !ok then go !stack
          else begin
            List.iter (fun v -> s.seen.(v) <- false) !marked_here;
            false
          end
        end
  in
  go [ l ]

(* shrink the learnt tail by recursive self-subsumption (the literals
   all carry seen marks at this point) *)
let minimise s tail =
  let abstract_levels =
    List.fold_left (fun acc l -> acc lor abstract_level s (var_of l)) 0 tail
  in
  let to_clear = ref [] in
  let tail' =
    List.filter
      (fun l ->
        s.reason.(var_of l) == no_reason || not (lit_redundant s abstract_levels to_clear l))
      tail
  in
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  (tail', List.length tail - List.length tail')

let analyze s confl =
  (* first-UIP learning *)
  let learnt = ref [] in
  let path_count = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.len s.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = !confl in
    assert (c != no_reason);
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length c - 1 do
      let q = c.(k) in
      let v = var_of q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr path_count
        else learnt := q :: !learnt
      end
    done;
    (* pick next literal to expand from the trail *)
    let rec next_seen i = if s.seen.(var_of (Vec.get s.trail i)) then i else next_seen (i - 1) in
    index := next_seen !index;
    let l = Vec.get s.trail !index in
    decr index;
    p := l;
    let v = var_of l in
    confl := s.reason.(v);
    s.seen.(v) <- false;
    decr path_count;
    if !path_count <= 0 then continue := false
  done;
  let tail0 = !learnt in
  let tail =
    if tail0 <> [] then begin
      let tail, removed = minimise s tail0 in
      s.minimised_literals <- s.minimised_literals + removed;
      tail
    end
    else tail0
  in
  let learnt = negate !p :: tail in
  (* clear seen (removed literals stay marked in tail0) *)
  List.iter (fun l -> s.seen.(var_of l) <- false) tail0;
  s.seen.(var_of !p) <- false;
  (* compute backtrack level = max level among learnt tail *)
  match learnt with
  | [] -> assert false
  | [ _ ] -> (learnt, 0)
  | first :: rest ->
      let max_lit =
        List.fold_left
          (fun best l -> if s.level.(var_of l) > s.level.(var_of best) then l else best)
          (List.hd rest) rest
      in
      (* move max to second position *)
      let rest = max_lit :: List.filter (fun l -> l <> max_lit) rest in
      (first :: rest, s.level.(var_of max_lit))

let record_learnt s lits =
  (match lits with
  | [] -> ()
  | ls ->
      s.learnt_clauses <- s.learnt_clauses + 1;
      s.learnt_literals <- s.learnt_literals + List.length ls);
  match lits with
  | [] -> s.ok <- false
  | [ l ] ->
      (* Unit learnt clause.  Give it a self-reason so that conflict
         analysis never expands a reasonless literal mid-level (the
         1-literal reason contributes nothing and terminates cleanly). *)
      enqueue s l [| l |]
  | _ ->
      let c = Array.of_list lits in
      attach s c;
      enqueue s c.(0) c

(* -------------------- search --------------------------------------- *)

let pick_branch s =
  let rec go () =
    if Vec.len s.heap = 0 then None
    else
      let v = heap_remove_max s in
      if s.assign.(v) = 0 then Some v else go ()
  in
  go ()

exception Unsat
exception Sat_found
exception Budget_exhausted

let conflict_budget = 10_000

(* a search that began by deciding a circuit's internal wires before its
   inputs starts over, keeping what it learnt (see DESIGN.md) *)
let restart_interval = 100

let solve ?(assumptions = []) s =
  if not s.ok then false
  else begin
    cancel_until s 0;
    let assumptions = Array.of_list assumptions in
    let budget_end = s.conflicts + conflict_budget in
    let next_restart = ref (s.conflicts + restart_interval) in
    try
      let rec search () =
        match propagate s with
        | Some confl ->
            s.conflicts <- s.conflicts + 1;
            if decision_level s <= Array.length assumptions then begin
              (* conflict within/below assumption levels: UNSAT under assumptions.
                 Conservative: any conflict at a level not above the assumption
                 prefix means assumptions are inconsistent with the clauses. *)
              if decision_level s = 0 then s.ok <- false;
              raise Unsat
            end;
            let learnt, back_lvl = analyze s confl in
            let back_lvl = max back_lvl (min (Array.length assumptions) (decision_level s - 1)) in
            cancel_until s back_lvl;
            record_learnt s learnt;
            var_decay s;
            if s.conflicts >= budget_end then begin
              (* the learnt clauses stay: they are implied by the
                 clause database, so later solves may use them *)
              cancel_until s 0;
              raise Budget_exhausted
            end;
            if s.conflicts >= !next_restart then begin
              next_restart := s.conflicts + restart_interval;
              s.restarts <- s.restarts + 1;
              cancel_until s (min (Array.length assumptions) (decision_level s))
            end;
            search ()
        | None ->
            if decision_level s < Array.length assumptions then begin
              (* establish next assumption *)
              let a = assumptions.(decision_level s) in
              match lit_val s a with
              | 1 ->
                  (* already true: still open a level to keep indexing aligned *)
                  Vec.push s.trail_lim (Vec.len s.trail);
                  search ()
              | 2 -> raise Unsat
              | _ ->
                  Vec.push s.trail_lim (Vec.len s.trail);
                  enqueue s a no_reason;
                  search ()
            end
            else begin
              match pick_branch s with
              | None -> raise Sat_found
              | Some v ->
                  s.decisions <- s.decisions + 1;
                  Vec.push s.trail_lim (Vec.len s.trail);
                  let ph =
                    let t = s.target.(v) in
                    if t <> 0 then t = 1 else s.polarity.(v)
                  in
                  enqueue s (if ph then pos v else neg v) no_reason;
                  search ()
            end
      in
      search ()
    with
    | Sat_found ->
        (* remember the model as the preferred phases of later solves *)
        Array.blit s.assign 0 s.target 0 s.nvars;
        true
    | Unsat ->
        cancel_until s 0;
        false
  end

let set_polarity s v b =
  if v < s.nvars then begin
    s.polarity.(v) <- b;
    (* a fresh suggestion outranks the stale model phase *)
    s.target.(v) <- (if b then 1 else 2)
  end

let backtrack s = cancel_until s 0

(* drops the watchers of retired clauses from a list, keeping the
   order of the rest *)
let sweep_list (w : Wl.t) =
  let j = ref 0 in
  for i = 0 to w.len - 1 do
    let c = Array.unsafe_get w.cls i in
    if Array.unsafe_get c 0 <> retired then begin
      Array.unsafe_set w.cls !j c;
      Array.unsafe_set w.lit !j (Array.unsafe_get w.lit i);
      incr j
    end
  done;
  Array.fill w.cls !j (w.len - !j) no_reason;
  w.len <- !j

(* a freed literal's list, emptied in place for the variable that
   reuses the slot; the sentinel is never written *)
let clear_list s (w : Wl.t) =
  if w != s.empty then begin
    Array.fill w.cls 0 w.len no_reason;
    w.len <- 0
  end

(* Back to the mark [(nvars, nclauses)]: every clause attached after it
   is retired, and its watchers leave the surviving literals' lists
   (the lists of its first two literals' variables).  Every variable
   from [nvars] on leaves the level-0 trail and the decision heap, with
   its slots reset and its watch lists emptied in place for [new_var]
   to reuse.  The surviving level-0 assignments stay: they are implied
   by the surviving clauses (DESIGN.md, "Solver internals"). *)
let truncate s ~nvars ~nclauses =
  cancel_until s 0;
  (* the surviving variables whose lists hold a retired clause's
     watcher, each once ([seen] is free outside conflict analysis) *)
  let touched = ref [] in
  let touch l =
    let v = var_of l in
    if v < nvars && not s.seen.(v) then begin
      s.seen.(v) <- true;
      touched := v :: !touched
    end
  in
  for i = nclauses to Vec.len s.clauses - 1 do
    let c = Vec.get s.clauses i in
    touch c.(0);
    touch c.(1);
    c.(0) <- retired;
    Vec.set s.clauses i no_reason
  done;
  Vec.shrink s.clauses nclauses;
  List.iter
    (fun v ->
      s.seen.(v) <- false;
      sweep_list s.watches.(pos v);
      sweep_list s.watches.(neg v);
      sweep_list s.bin_watches.(pos v);
      sweep_list s.bin_watches.(neg v))
    !touched;
  if nvars < s.nvars then begin
    let j = ref 0 in
    for i = 0 to Vec.len s.trail - 1 do
      let l = Vec.get s.trail i in
      if var_of l < nvars then begin
        Vec.set s.trail !j l;
        incr j
      end
    done;
    Vec.shrink s.trail !j;
    s.qhead <- !j;
    for v = nvars to s.nvars - 1 do
      if s.heap_pos.(v) >= 0 then heap_remove s v;
      s.assign.(v) <- 0;
      s.level.(v) <- 0;
      s.reason.(v) <- no_reason;
      s.activity.(v) <- 0.0;
      s.polarity.(v) <- false;
      s.target.(v) <- 0;
      s.constrained.(v) <- false;
      clear_list s s.watches.(pos v);
      clear_list s s.watches.(neg v);
      clear_list s s.bin_watches.(pos v);
      clear_list s s.bin_watches.(neg v)
    done;
    s.nvars <- nvars
  end

let watchers s =
  let count table = Array.fold_left (fun acc (w : Wl.t) -> acc + w.len) 0 table in
  count s.watches + count s.bin_watches

let snapshot s =
  let b = Bytes.create s.nvars in
  for v = 0 to s.nvars - 1 do
    Bytes.unsafe_set b v (Char.unsafe_chr (Array.unsafe_get s.assign v))
  done;
  b

let value s v = s.assign.(v) = 1

let lit_value s l = lit_val s l = 1
