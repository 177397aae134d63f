(** Incremental QF_BV solver over {!Expr} terms.

    Assertions are grouped into a stack of scopes.  {!push} opens a
    scope guarded by a fresh activation literal; {!pop} retires the
    scope and permanently disables its assertions.  Learned clauses
    and blasted subcircuits survive pops, which is what makes DFS path
    exploration incremental (the paper configures Z3 the same way,
    §6). *)

type t

type result = Sat | Unsat

val create : ?obs:Obs.Registry.t -> Expr.ctx -> t
(** A fresh solver bound to one {!Expr.ctx}; terms from other contexts
    are rejected.  Independent solvers over independent contexts may
    run on different domains concurrently.

    [obs] is the metrics registry the solver reports into (a private
    one is allocated when omitted): the [solver.checks] counter and
    [solver.time] timer, the [solver.scope_depth_hw] high-water gauge,
    the [sat.*] search counters (decisions, propagations, conflicts,
    restarts, learnt clauses/literals, minimised_literals), the
    [blast.cache_*] term-cache counters and the [rewrite.hits]
    word-level-rewrite counter.  Several solvers may share a registry
    — e.g. across explorer rebuilds — and their contributions
    accumulate.

    Every asserted or assumed term passes through {!Expr.simplify}
    before bit-blasting. *)

val ctx : t -> Expr.ctx
(** The term context this solver was created for. *)

val obs : t -> Obs.Registry.t
(** The metrics registry this solver reports into. *)

val flush_stats : t -> unit
(** Pushes any SAT/blaster counter activity since the last flush into
    the registry.  Called automatically after every check; call it
    before reading the registry if terms were asserted (blasted) after
    the last check, or before retiring the solver. *)

val push : t -> unit
val pop : t -> unit
(** Raises [Invalid_argument] when the scope stack is empty. *)

val assert_ : t -> Expr.t -> unit
(** Asserts a width-1 term in the current scope. *)

val check : t -> result
(** Raises {!Sat.Budget_exhausted} when the SAT core gives up (see
    {!Sat.solve}); the check is still counted and timed, the last
    model stays in place, and the solver remains usable. *)

val check_assuming : t -> Expr.t list -> result
(** Checks the current assertions plus temporary width-1 assumptions
    that are not retained.  Raises {!Sat.Budget_exhausted} like
    {!check}. *)

val suggest : t -> Expr.t -> Bitv.Bits.t -> unit
(** [suggest s var_term value] asks the SAT core to try [value] first
    for the bits of a variable term — a "soft" preference that costs no
    clauses, used to randomize free test inputs. *)

val model_var : t -> Expr.var -> Bitv.Bits.t
(** Value of a variable in the model of the last [Sat] answer.
    Variables that never appeared in an assertion are zero. *)

val model_taint : t -> int -> int -> Bitv.Bits.t
(** [model_taint s id width]: model value of a taint node. *)

val model_eval : t -> Expr.t -> Bitv.Bits.t
(** Evaluates any term under the last model. *)

val size : t -> int
(** Number of SAT variables allocated so far (grows monotonically as
    terms are blasted; used to decide when a fresh solver is cheaper
    than an ever-growing one). *)

val holds : t -> Expr.t -> bool
(** [holds s e]: the width-1 term [e] evaluates to true under the last
    [Sat] model (extended with zeros for variables the model does not
    mention).  When it does, the model also witnesses satisfiability of
    the current assertions plus [e], so no solver call is needed. *)

(** {1 Captured models}

    A captured model freezes the last satisfying assignment as a
    fixed total function over terms: assigned bits keep their value,
    unassigned or later-blasted bits read as zero (a sound extension
    for unconstrained bits).  Evaluation performs only read-only blast
    lookups, so a captured model stays valid while its solver goes on
    solving, and after the solver is rebuilt.  The query cache uses
    them as satisfiability witnesses. *)

type model

val capture_model : t -> model option
(** The last [Sat] assignment, or [None] if no check has succeeded.
    Costs no copy: the model shares the solver's snapshot (one byte
    per SAT variable, taken once per [Sat] answer), which the next
    [Sat] answer replaces rather than overwrites. *)

val frozen_eval : model -> Expr.t -> Bitv.Bits.t
(** Evaluates any term under the frozen assignment (unassigned and
    later-blasted bits read as zero, unlike {!model_var}, which falls
    back to suggested values). *)

val model_holds : model -> Expr.t -> bool
(** [model_holds m e]: the width-1 term [e] evaluates to true under
    the frozen assignment.  Time-stable: repeated calls always agree. *)

val model_bytes : model -> int
(** Approximate heap footprint, for cache accounting: one byte per SAT
    variable of the shared snapshot plus a fixed 64 for the record. *)
