(** Query cache for branch-feasibility checks: constraint-independence
    slicing plus model reuse plus UNSAT-slice memoisation (KLEE's
    counterexample-cache design).

    The cache mirrors the explorer's DFS spine: {!push} / {!pop} keep an undoable union-find over the free-symbol
    supports of the active path conditions.  {!check} answers a
    branch-feasibility question from three layers — a SAT-set
    subsumption shortcut, a ring of captured models, and an UNSAT-set
    cache with superset shortcuts — or returns [Unknown], in which
    case the caller runs a real solver check and reports the outcome
    with {!note_sat} / {!note_unsat}.

    Soundness relies on the explorer's invariant that the active path
    is satisfiable whenever {!check} is called.  Verdicts then agree
    exactly with what a solver call would return, so caching never
    changes which paths are explored — only how much the answers
    cost. *)

type t

type verdict = Sat_hit | Unsat_hit | Unknown

type store
(** Cross-run shared state: SAT/UNSAT digest sets are
    context-independent facts about a program's constraints, so a
    serve daemon shares them between requests for the same
    fingerprint.  Thread-safe; holds at most 512 SAT and 512 UNSAT
    sets. *)

val create_store : unit -> store

val store_entries : store -> int
(** Number of digest sets currently held (tests/diagnostics). *)

val create : ?obs:Obs.Registry.t -> ?store:store -> unit -> t
(** A fresh cache reporting into [obs] ([qcache.slices] and one hit
    counter per layer — [qcache.subsumed], [qcache.model_hits],
    [qcache.unsat_hits], [qcache.witness_hits] — plus the
    [qcache.solver_checks_avoided] counter and the [qcache.bytes]
    gauge).  Each digest-set ring holds 512 sets.  When [store] is
    given, the cache seeds from it at creation; call {!publish} to
    fold new entries back. *)

val push : t -> Expr.t -> unit
(** Register a DFS spine condition; mirror of the solver's push. *)

val pop : t -> unit
(** Undo the most recent {!push}. *)

val check : t -> Expr.t -> verdict
(** [check t c]: would asserting [c] on top of the active path keep it
    satisfiable?  [Sat_hit]/[Unsat_hit] are definitive (they agree
    with what the solver would say); on [Unknown] the caller runs a
    real check and then calls {!note_sat} or {!note_unsat} before the
    next {!check}/{!push}/{!pop} on [t] — or neither, when the check
    ran out of budget: an unknown verdict is never recorded. *)

val note_sat : t -> Solver.model option -> unit
(** The real check of path ∪ {c} returned Sat: records the active
    digest set as satisfiable and captures the witness model. *)

val note_unsat : t -> unit
(** The real check returned Unsat: records the slice stashed by the
    preceding {!check} as an UNSAT set. *)

val note_model : t -> Solver.model option -> unit
(** Harvest an extra witness assignment into the model ring
    ({!note_sat} does this with the probe's model). *)

val publish : t -> unit
(** Fold this cache's digest sets into its [store], if any. *)

val components : Expr.t list -> Expr.t list list
(** Partition conditions into independence components: two conditions
    share a component iff their free-symbol supports are transitively
    connected.  Order follows first appearance.  The conjunction of a
    condition list is satisfiable iff each component's conjunction
    is — the property the slicer exploits. *)
