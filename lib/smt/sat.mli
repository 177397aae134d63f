(** A CDCL SAT solver (two-watched-literal propagation with blocking
    literals and a dedicated binary-clause watch layer, VSIDS decision
    heuristic, first-UIP clause learning with recursive self-subsumption
    minimisation, phase saving with target-phase reuse, restarts every
    100 conflicts, solving under assumptions, a conflict budget per
    solve).

    Learnt clauses are kept until {!truncate} retires them: the path
    constraints of test generation are easy (at most about a hundred
    conflicts per solve on the measured workloads), and the budget
    bounds the rare hard one.

    Literals are integers: variable [v]'s positive literal is [2 * v],
    its negation [2 * v + 1].  Variables must be allocated with
    {!new_var} before use. *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocates a variable and returns its index. *)

val nvars : t -> int

val nclauses : t -> int
(** Clauses attached so far, problem and learnt, minus those
    {!truncate} retired.  Unit clauses are not attached: they are
    level-0 assignments. *)

val pos : int -> int
(** [pos v] is variable [v]'s positive literal. *)

val neg : int -> int
(** [neg v] is variable [v]'s negative literal. *)

val negate : int -> int
(** Negates a literal. *)

val add_clause : t -> int list -> unit
(** Adds a clause.  Adding the empty clause (or a clause falsified at
    level 0) makes the instance permanently unsatisfiable. *)

exception Budget_exhausted

val conflict_budget : int
(** Conflicts one {!solve} may spend before it gives up (10,000). *)

val solve : ?assumptions:int list -> t -> bool
(** [solve s ~assumptions] is [true] iff the clauses are satisfiable
    together with the assumption literals.  The solver state persists:
    learned clauses are kept across calls (incremental solving).

    Raises {!Budget_exhausted} after {!conflict_budget} conflicts in
    this call, with the solver back at decision level 0: the answer is
    unknown, and the solver stays usable for other queries. *)

val set_polarity : t -> int -> bool -> unit
(** [set_polarity s v b] makes the solver try [v = b] first when
    branching.  Overrides both the saved phase and the target phase
    from the last model, so fresh suggestions always win. *)

val backtrack : t -> unit
(** Undoes all decisions, returning to level 0.  Must be called before
    {!add_clause} if a {!solve} has run since the last clause was
    added.  Invalidate any model read so far. *)

val truncate : t -> nvars:int -> nclauses:int -> unit
(** [truncate s ~nvars ~nclauses] takes the solver back to a mark read
    from {!nvars} and {!nclauses} earlier: it backtracks to level 0,
    retires every clause attached since, and frees every variable
    allocated since, whose numbers {!new_var} then hands out again.
    Afterwards [nvars s = nvars] and [nclauses s = nclauses].

    Sound when what was added since the mark is a conservative
    extension of what was there (definitions of fresh variables,
    clauses guarded by a fresh literal, learnt clauses): the level-0
    assignments kept are then implied by the clauses kept. *)

val watchers : t -> int
(** The watchers held by both watch layers: two per attached clause
    ({!nclauses}), once a {!truncate} has swept out the retired
    ones. *)

val snapshot : t -> Bytes.t
(** Copy of the current assignment, one byte per variable: code 0
    unassigned, 1 true, 2 false.  The solver keeps no reference to
    it. *)

val value : t -> int -> bool
(** [value s v]: variable [v]'s value in the model of the last
    successful {!solve}. *)

val lit_value : t -> int -> bool

type counters = {
  c_decisions : int;
  c_propagations : int;
  c_conflicts : int;
  c_restarts : int;
  c_learnt_clauses : int;  (** clauses learned, unit clauses included *)
  c_learnt_literals : int;  (** total literals across learned clauses *)
  c_minimised_literals : int;
      (** literals removed from 1UIP clauses by self-subsumption *)
}

val counters : t -> counters
(** All search counters since creation (monotone; the {!Solver} flushes
    deltas of these into its metrics registry). *)
