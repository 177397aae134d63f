module Bits = Bitv.Bits

type result = Sat | Unsat

(* metric cells resolved once at creation; [run] updates them and
   flushes SAT/blaster counter deltas after every solve *)
type metrics = {
  m_obs : Obs.Registry.t;
  m_checks : Obs.Counter.t;
  m_time : Obs.Timer.t;
  m_depth_hw : Obs.Gauge.t;
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
  (* last-flushed readings, so deltas accumulate correctly even when
     several solvers (e.g. across rebuilds) share one registry *)
  mutable m_last_sat : Sat.counters;
  mutable m_last_hits : int;
  mutable m_last_misses : int;
  mutable m_last_rewrites : int;
}

type t = {
  ectx : Expr.ctx;
  sat : Sat.t;
  blast : Blast.t;
  metrics : metrics;
  mutable scopes : int list; (* activation literals, innermost first *)
  (* snapshot of the SAT assignment after the last Sat answer; models
     are read from here so they survive backtracking, and branch
     conditions already true under it skip the solver entirely.  One
     byte per SAT variable ({!Sat.snapshot}).  Each Sat answer replaces
     it with a fresh one and nothing ever writes into it, so captured
     models share it instead of copying it. *)
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
    (* the term context may predate this solver (rebuilds): report only
       rewrites performed from now on *)
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
  let hits, misses = Blast.cache_stats s.blast in
  Obs.Counter.add m.m_cache_hits (hits - m.m_last_hits);
  Obs.Counter.add m.m_cache_misses (misses - m.m_last_misses);
  m.m_last_hits <- hits;
  m.m_last_misses <- misses;
  let rw = Expr.rewrite_hits s.ectx in
  Obs.Counter.add m.m_rewrite_hits (rw - m.m_last_rewrites);
  m.m_last_rewrites <- rw

let push s =
  Sat.backtrack s.sat;
  let g = Sat.pos (Sat.new_var s.sat) in
  s.scopes <- g :: s.scopes;
  Obs.Gauge.set_max s.metrics.m_depth_hw (List.length s.scopes)

let pop s =
  match s.scopes with
  | [] -> invalid_arg "Solver.pop: no scope to pop"
  | g :: rest ->
      Sat.backtrack s.sat;
      (* permanently disable the scope's assertions *)
      Sat.add_clause s.sat [ Sat.negate g ];
      s.scopes <- rest

let ctx s = s.ectx

let assert_ s e =
  if Expr.width e <> 1 then invalid_arg "Solver.assert_: width-1 term expected";
  if Expr.ctx_of e != s.ectx then
    invalid_arg "Solver.assert_: term from a different Expr context";
  Sat.backtrack s.sat;
  (* word-level rewrite at assert time: what the pass discharges never
     reaches the CNF layer *)
  let l = Blast.lit s.blast (Expr.simplify e) in
  match s.scopes with
  | [] -> Sat.add_clause s.sat [ l ]
  | g :: _ -> Sat.add_clause s.sat [ Sat.negate g; l ]

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

let check s = run s s.scopes

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
  run s (s.scopes @ ls)

let suggest s e (b : Bits.t) =
  (* record the preferred value, materialize the variable's bits
     (fresh SAT vars, no clauses), and set branching polarity for the
     bits the solver does decide *)
  (match e.Expr.node with
  | Expr.Var v -> Hashtbl.replace s.suggestions v.Expr.vid b
  | _ -> ());
  let ls = Blast.bits s.blast e in
  Array.iteri
    (fun i l ->
      if l land 1 = 0 (* positive literal: polarity = bit value *) then
        Sat.set_polarity s.sat (l lsr 1) (Bits.get b i)
      else Sat.set_polarity s.sat (l lsr 1) (not (Bits.get b i)))
    ls

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
   them) plus the blast that maps terms to SAT literals at capture
   time.  Bits the snapshot leaves unassigned — and any
   variable blasted only after the capture (its literals index past
   the frozen snapshot) — read as zero, which is a sound extension:
   an unconstrained bit can take any value, and the zero default makes
   the assignment a fixed total function for all time.  Evaluation
   only performs read-only blast lookups ([var_bits]/[taint_bits]),
   never blasting, so a captured model never changes its solver. *)

type model = { m_snap : Bytes.t; m_blast : Blast.t }

let capture_model s =
  if Bytes.length s.model_snap = 0 then None
  else Some { m_snap = s.model_snap; m_blast = s.blast }

let frozen_eval m e =
  Expr.eval
    ~taint:(fun id w ->
      match Blast.taint_bits m.m_blast id with
      | Some ls -> bits_of_lits m.m_snap ls
      | None -> Bits.zero w)
    (fun v ->
      match Blast.var_bits m.m_blast v with
      | Some ls -> bits_of_lits m.m_snap ls
      | None -> Bits.zero v.Expr.vwidth)
    e

let model_holds m e = Bits.is_ones (frozen_eval m e)

(* one snapshot byte per SAT variable plus a fixed overhead for the
   record/blast pointer; used only for the qcache.bytes gauge,
   precision is not needed *)
let model_bytes m = Bytes.length m.m_snap + 64
