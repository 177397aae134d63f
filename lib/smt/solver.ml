module Bits = Bitv.Bits

type result = Sat | Unsat

(* metric cells resolved once at creation; [run] updates them and
   flushes SAT/blaster counter deltas after every solve *)
type metrics = {
  m_obs : Obs.Registry.t;
  m_checks : Obs.Counter.t;
  m_time : Obs.Timer.t;
  m_depth_hw : Obs.Gauge.t;
  m_vars_hw : Obs.Gauge.t;
  m_decisions : Obs.Counter.t;
  m_propagations : Obs.Counter.t;
  m_conflicts : Obs.Counter.t;
  m_restarts : Obs.Counter.t;
  m_learnt_clauses : Obs.Counter.t;
  m_learnt_literals : Obs.Counter.t;
  m_minimised_literals : Obs.Counter.t;
  m_cache_hits : Obs.Counter.t;
  m_cache_misses : Obs.Counter.t;
  m_rewrite_hits : Obs.Counter.t;
  (* last-flushed readings, so deltas accumulate correctly when
     several solvers share one registry *)
  mutable m_last_sat : Sat.counters;
  mutable m_last_hits : int;
  mutable m_last_misses : int;
  mutable m_last_rewrites : int;
}

(* a scope: its activation literal, and the mark its pop goes back
   to, the SAT core's variables and clauses and the blaster's caches
   just before that literal's variable was allocated *)
type scope = { guard : int; k_vars : int; k_clauses : int; k_blast : Blast.mark }

type t = {
  ectx : Expr.ctx;
  sat : Sat.t;
  blast : Blast.t;
  metrics : metrics;
  mutable scopes : scope list; (* innermost first *)
  (* snapshot of the SAT assignment after the last Sat answer; models
     are read from here so they survive backtracking, and branch
     conditions already true under it skip the solver entirely.  One
     byte per SAT variable ({!Sat.snapshot}), dropped on pop so a
     reused variable never reads a popped scope's value.  Each Sat
     answer replaces it with a fresh one and nothing ever writes into
     it, so captured models share it instead of copying it. *)
  mutable model_snap : Bytes.t;
  (* per-variable suggested values for free inputs; consulted when the
     SAT core left the bit unassigned (unconstrained vars are no longer
     decided at all) *)
  suggestions : (int, Bitv.Bits.t) Hashtbl.t;
}

let make_metrics obs ectx sat =
  let c = Obs.Registry.counter obs and t = Obs.Registry.timer obs in
  {
    m_obs = obs;
    m_checks = c "solver.checks";
    m_time = t "solver.time";
    m_depth_hw = Obs.Registry.gauge obs "solver.scope_depth_hw";
    m_vars_hw = Obs.Registry.gauge obs "solver.vars_hw";
    m_decisions = c "sat.decisions";
    m_propagations = c "sat.propagations";
    m_conflicts = c "sat.conflicts";
    m_restarts = c "sat.restarts";
    m_learnt_clauses = c "sat.learnt_clauses";
    m_learnt_literals = c "sat.learnt_literals";
    m_minimised_literals = c "sat.minimised_literals";
    m_cache_hits = c "blast.cache_hits";
    m_cache_misses = c "blast.cache_misses";
    m_rewrite_hits = c "rewrite.hits";
    m_last_sat = Sat.counters sat;
    m_last_hits = 0;
    m_last_misses = 0;
    (* the term context may predate this solver: report only rewrites
       performed from now on *)
    m_last_rewrites = Expr.rewrite_hits ectx;
  }

let create ?obs ectx =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let sat = Sat.create () in
  let blast = Blast.create ectx sat in
  {
    ectx;
    sat;
    blast;
    metrics = make_metrics obs ectx sat;
    scopes = [];
    model_snap = Bytes.empty;
    suggestions = Hashtbl.create 256;
  }

let obs s = s.metrics.m_obs

let flush_stats s =
  let m = s.metrics in
  let c = Sat.counters s.sat and last = m.m_last_sat in
  Obs.Counter.add m.m_decisions (c.Sat.c_decisions - last.Sat.c_decisions);
  Obs.Counter.add m.m_propagations (c.Sat.c_propagations - last.Sat.c_propagations);
  Obs.Counter.add m.m_conflicts (c.Sat.c_conflicts - last.Sat.c_conflicts);
  Obs.Counter.add m.m_restarts (c.Sat.c_restarts - last.Sat.c_restarts);
  Obs.Counter.add m.m_learnt_clauses (c.Sat.c_learnt_clauses - last.Sat.c_learnt_clauses);
  Obs.Counter.add m.m_learnt_literals (c.Sat.c_learnt_literals - last.Sat.c_learnt_literals);
  Obs.Counter.add m.m_minimised_literals
    (c.Sat.c_minimised_literals - last.Sat.c_minimised_literals);
  m.m_last_sat <- c;
  Obs.Gauge.set_max m.m_vars_hw (Sat.nvars s.sat);
  let hits, misses = Blast.cache_stats s.blast in
  Obs.Counter.add m.m_cache_hits (hits - m.m_last_hits);
  Obs.Counter.add m.m_cache_misses (misses - m.m_last_misses);
  m.m_last_hits <- hits;
  m.m_last_misses <- misses;
  let rw = Expr.rewrite_hits s.ectx in
  Obs.Counter.add m.m_rewrite_hits (rw - m.m_last_rewrites);
  m.m_last_rewrites <- rw

(* A scope owns everything created under it: the mark is read before
   its activation variable exists, and [pop] truncates the SAT core and
   the blaster back to it, so a solver holds only its live scopes *)
let push s =
  Sat.backtrack s.sat;
  let k_vars = Sat.nvars s.sat and k_clauses = Sat.nclauses s.sat in
  let k_blast = Blast.mark s.blast in
  let guard = Sat.pos (Sat.new_var s.sat) in
  s.scopes <- { guard; k_vars; k_clauses; k_blast } :: s.scopes;
  Obs.Gauge.set_max s.metrics.m_depth_hw (List.length s.scopes)

let pop s =
  match s.scopes with
  | [] -> invalid_arg "Solver.pop: no scope to pop"
  | k :: rest ->
      Obs.Gauge.set_max s.metrics.m_vars_hw (Sat.nvars s.sat);
      Sat.truncate s.sat ~nvars:k.k_vars ~nclauses:k.k_clauses;
      Blast.truncate s.blast k.k_blast;
      s.model_snap <- Bytes.empty;
      s.scopes <- rest

(* the activation literals of the open scopes, innermost first: every
   check assumes them *)
let guards s = List.map (fun k -> k.guard) s.scopes

let ctx s = s.ectx

let assert_ s e =
  if Expr.width e <> 1 then invalid_arg "Solver.assert_: width-1 term expected";
  if Expr.ctx_of e != s.ectx then
    invalid_arg "Solver.assert_: term from a different Expr context";
  Sat.backtrack s.sat;
  (* word-level rewrite at assert time: what the pass discharges never
     reaches the CNF layer; the rest becomes clauses, each guarded by
     the innermost scope's activation literal *)
  let cs = Blast.clauses s.blast (Expr.simplify e) in
  match s.scopes with
  | [] -> List.iter (Sat.add_clause s.sat) cs
  | k :: _ -> List.iter (fun c -> Sat.add_clause s.sat (Sat.negate k.guard :: c)) cs

(* a check cut by the SAT core's conflict budget still counts: its
   time and counters are recorded before [Sat.Budget_exhausted]
   reaches the caller *)
let run s assumptions =
  Obs.Counter.incr s.metrics.m_checks;
  let t0 = Obs.Clock.now () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Timer.add s.metrics.m_time (Obs.Clock.now () -. t0);
        flush_stats s)
      (fun () -> Sat.solve ~assumptions s.sat)
  in
  if r then begin
    s.model_snap <- Sat.snapshot s.sat;
    Sat
  end
  else Unsat

let check s = run s (guards s)

let check_assuming s es =
  Sat.backtrack s.sat;
  let ls =
    List.map
      (fun e ->
        if Expr.width e <> 1 then
          invalid_arg "Solver.check_assuming: width-1 term expected";
        Blast.lit s.blast (Expr.simplify e))
      es
  in
  run s (guards s @ ls)

let suggest s e (b : Bits.t) =
  (* record the preferred value, and set branching polarity for the
     bits already blasted; a bit no clause mentions yet gets no SAT
     variable, and [model_var] reads it from the recorded value *)
  match e.Expr.node with
  | Expr.Var v -> (
      Hashtbl.replace s.suggestions v.Expr.vid b;
      match Blast.var_bits s.blast v with
      | Some ls ->
          Array.iteri
            (fun i l ->
              (* positive literal: polarity = bit value *)
              Sat.set_polarity s.sat (l lsr 1) (Bits.get b i = (l land 1 = 0)))
            ls
      | None -> ())
  | _ -> ()

(* literal value under a snapshot: 1 true, 2 false, 0 unassigned *)
let snap_raw snap l =
  let v = l lsr 1 in
  let a = if v < Bytes.length snap then Char.code (Bytes.unsafe_get snap v) else 0 in
  if a = 0 then 0 else if l land 1 = 0 then a else 3 - a

(* a value is read in one pass over its literals, so a w-bit readout
   costs O(w); unassigned bits read as zero *)
let bits_of_lits snap ls =
  Bits.init (Array.length ls) (fun i -> snap_raw snap ls.(i) = 1)

(* like [bits_of_lits] but bits the model leaves unassigned (the SAT
   core only decides constrained variables) fall back to a suggested
   value — any value is a sound extension for an unconstrained bit *)
let bits_of_lits_with_default s ls (default : Bits.t option) =
  Bits.init (Array.length ls) (fun i ->
      match snap_raw s.model_snap ls.(i) with
      | 1 -> true
      | 2 -> false
      | _ -> ( match default with Some d -> Bits.get d i | None -> false))

let model_var s (v : Expr.var) =
  let default = Hashtbl.find_opt s.suggestions v.Expr.vid in
  match Blast.var_bits s.blast v with
  | Some ls -> bits_of_lits_with_default s ls default
  | None -> ( match default with Some d -> Bits.zext d v.Expr.vwidth | None -> Bits.zero v.Expr.vwidth)

let model_taint s id width =
  match Blast.taint_bits s.blast id with
  | Some ls -> bits_of_lits s.model_snap ls
  | None -> Bits.zero width

let model_eval s e =
  Expr.eval ~taint:(fun id w -> model_taint s id w) (fun v -> model_var s v) e

let size s = Sat.nvars s.sat

(* [holds s e] — the width-1 term [e] is true under the last model
   (extended with zeros for new variables).  Used by the explorer to
   skip solver calls for branches the current model already takes. *)
let holds s e =
  Bytes.length s.model_snap > 0 && Bits.is_ones (model_eval s e)

(* ------------------------------------------------------------------ *)
(* Captured models.

   A [model] freezes the last satisfying assignment: the snapshot
   bytes (shared with the solver, which replaces rather than mutates
   them) plus copies of the blaster's variable and taint tables at
   capture time.  The copies matter: a pop frees variable numbers that
   later terms reuse, so the live tables would map a variable to
   literals the snapshot knows under another meaning.  Bits the
   snapshot leaves unassigned, and variables not blasted at capture,
   read as zero, which is a sound extension: an unconstrained bit can
   take any value, and the zero default makes the assignment a fixed
   total function for all time.  Evaluation only reads the copies, so
   a captured model never changes its solver. *)

type model = {
  m_snap : Bytes.t;
  m_vars : (int, int array) Hashtbl.t;
  m_taints : (int, int array) Hashtbl.t;
}

let capture_model s =
  if Bytes.length s.model_snap = 0 then None
  else
    let m_vars, m_taints = Blast.leaves s.blast in
    Some { m_snap = s.model_snap; m_vars; m_taints }

let frozen_eval m e =
  Expr.eval
    ~taint:(fun id w ->
      match Hashtbl.find_opt m.m_taints id with
      | Some ls -> bits_of_lits m.m_snap ls
      | None -> Bits.zero w)
    (fun v ->
      match Hashtbl.find_opt m.m_vars v.Expr.vid with
      | Some ls -> bits_of_lits m.m_snap ls
      | None -> Bits.zero v.Expr.vwidth)
    e

let model_holds m e = Bits.is_ones (frozen_eval m e)

(* one snapshot byte per SAT variable, a word per literal and a few per
   entry of the copied tables, and a fixed overhead for the record;
   used only for the qcache.bytes gauge, precision is not needed *)
let model_bytes m =
  let table t = Hashtbl.fold (fun _ ls acc -> acc + (8 * (Array.length ls + 4))) t 0 in
  Bytes.length m.m_snap + table m.m_vars + table m.m_taints + 64
