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
     query costs a bounded amount of work. *)

(* a clause is its literal array; [propagate] reorders it in place so
   that the watched literals come first *)
type clause = int array

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

  let create () = { cls = [||]; lit = [||]; len = 0 }

  let push w c l =
    if w.len = Array.length w.cls then begin
      let n = if w.len = 0 then 4 else 2 * w.len in
      let cls = Array.make n [||] and lit = Array.make n 0 in
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
  mutable ok : bool;
  (* per-literal watch lists: long clauses and a binary layer *)
  mutable watches : Wl.t array;
  mutable bin_watches : Wl.t array;
  (* per-variable state *)
  mutable assign : int array; (* 0/1/2 *)
  mutable level : int array;
  mutable reason : clause option array;
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

let create () =
  {
    nvars = 0;
    ok = true;
    watches = Array.init 2 (fun _ -> Wl.create ());
    bin_watches = Array.init 2 (fun _ -> Wl.create ());
    assign = Array.make 1 0;
    level = Array.make 1 0;
    reason = Array.make 1 None;
    activity = Array.make 1 0.0;
    polarity = Array.make 1 false;
    target = Array.make 1 0;
    heap_pos = Array.make 1 (-1);
    heap = Vec.create 0;
    var_inc = 1.0;
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    constrained = Array.make 1 false;
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learnt_clauses = 0;
    learnt_literals = 0;
    minimised_literals = 0;
    seen = Array.make 1 false;
  }

let pos v = 2 * v
let neg v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let sign l = l land 1 = 1

let nvars s = s.nvars

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

let grow_array a n dummy =
  let len = Array.length a in
  if n <= len then a
  else begin
    let d = Array.make (max n (2 * len)) dummy in
    Array.blit a 0 d 0 len;
    d
  end

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

(* -------------------- variable management -------------------------- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assign <- grow_array s.assign (v + 1) 0;
  s.level <- grow_array s.level (v + 1) 0;
  s.reason <- grow_array s.reason (v + 1) None;
  s.activity <- grow_array s.activity (v + 1) 0.0;
  s.polarity <- grow_array s.polarity (v + 1) false;
  s.target <- grow_array s.target (v + 1) 0;
  s.heap_pos <- grow_array s.heap_pos (v + 1) (-1);
  s.seen <- grow_array s.seen (v + 1) false;
  s.constrained <- grow_array s.constrained (v + 1) false;
  let nlits = 2 * (v + 1) in
  if Array.length s.watches < nlits then begin
    let grow w =
      Array.init (max nlits (2 * Array.length w)) (fun i ->
          if i < Array.length w then w.(i) else Wl.create ())
    in
    s.watches <- grow s.watches;
    s.bin_watches <- grow s.bin_watches
  end;
  s.assign.(v) <- 0;
  s.level.(v) <- 0;
  s.reason.(v) <- None;
  s.activity.(v) <- 0.0;
  s.polarity.(v) <- false;
  s.target.(v) <- 0;
  s.heap_pos.(v) <- -1;
  s.seen.(v) <- false;
  s.constrained.(v) <- false;
  (* not inserted into the decision heap until it appears in a clause *)
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
      s.reason.(v) <- None;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.len s.trail
  end

(* -------------------- clauses -------------------------------------- *)

let watch s l c blocker = Wl.push s.watches.(l) c blocker

let attach s c =
  (* watch the negations of the first two literals; binary clauses go
     to the dedicated layer that stores the implied literal inline *)
  if Array.length c = 2 then begin
    Wl.push s.bin_watches.(negate c.(0)) c c.(1);
    Wl.push s.bin_watches.(negate c.(1)) c c.(0)
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
         the common satisfied/undecided path *)
      let bw = Array.unsafe_get s.bin_watches p in
      let bn = bw.Wl.len in
      for i = 0 to bn - 1 do
        let o = Array.unsafe_get bw.Wl.lit i in
        let v = lit_val s o in
        if v = 2 then begin
          let c = Array.unsafe_get bw.Wl.cls i in
          s.qhead <- Vec.len s.trail;
          raise (Conflict c)
        end
        else if v = 0 then begin
          let c = Array.unsafe_get bw.Wl.cls i in
          (* conflict analysis expects the propagated literal first *)
          if c.(0) <> o then begin
            c.(0) <- o;
            c.(1) <- negate p
          end;
          enqueue s o (Some c)
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
              else enqueue s first (Some c)
            end
          end
        end
      done;
      ws.Wl.len <- !j
    done;
    None
  with Conflict c -> Some c

let add_clause s lits =
  if s.ok then begin
    (* simplify: remove duplicates and false lits (level 0), drop if tautology or satisfied *)
    assert (decision_level s = 0);
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (negate l) lits) lits
      || List.exists (fun l -> lit_val s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> lit_val s l <> 2) lits in
      List.iter (fun l -> mark_constrained s (var_of l)) lits;
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
          enqueue s l None;
          if propagate s <> None then s.ok <- false
      | _ ->
          attach s (Array.of_list lits)
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
    | q :: rest -> (
        match s.reason.(var_of q) with
        | None -> false
        | Some c ->
            let ok = ref true in
            let stack = ref rest in
            let len = Array.length c in
            let k = ref 1 in
            while !ok && !k < len do
              let l' = c.(!k) in
              let v = var_of l' in
              if (not s.seen.(v)) && s.level.(v) > 0 then begin
                if s.reason.(v) <> None && abstract_level s v land abstract_levels <> 0
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
            end)
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
        match s.reason.(var_of l) with
        | None -> true
        | Some _ -> not (lit_redundant s abstract_levels to_clear l))
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
  let confl = ref (Some confl) in
  let continue = ref true in
  while !continue do
    (match !confl with
    | None -> assert false
    | Some c ->
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
        done);
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
      enqueue s l (Some [| l |])
  | _ ->
      let c = Array.of_list lits in
      attach s c;
      enqueue s c.(0) (Some c)

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
                  enqueue s a None;
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
                  enqueue s (if ph then pos v else neg v) None;
                  search ()
            end
      in
      search ()
    with
    | Sat_found ->
        (* remember the model as the preferred phases of later solves *)
        for v = 0 to s.nvars - 1 do
          s.target.(v) <- s.assign.(v)
        done;
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

let snapshot s = Array.sub s.assign 0 s.nvars

let value s v = s.assign.(v) = 1

let lit_value s l = lit_val s l = 1
