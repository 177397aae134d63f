(** Incremental QF_BV solver over {!Expr} terms.

    Assertions are grouped into a stack of scopes.  {!push} opens a
    scope guarded by a fresh activation literal; {!pop} removes the
    scope together with everything created under it: its clauses, the
    SAT variables and subcircuits blasted for it, and the clauses
    learnt while it was open.  What outer scopes hold survives, which
    is what makes DFS path exploration incremental (the paper
    configures Z3 the same way, §6), and a solver only ever holds the
    live spine. *)

type t

type result = Sat | Unsat

val create : ?obs:Obs.Registry.t -> Expr.ctx -> t
(** A fresh solver bound to one {!Expr.ctx}; terms from other contexts
    are rejected.  Independent solvers over independent contexts may
    run on different domains concurrently.

    [obs] is the metrics registry the solver reports into (a private
    one is allocated when omitted): the [solver.checks] counter and
    [solver.time] timer, the [solver.scope_depth_hw] and
    [solver.vars_hw] (SAT variables held at once) high-water gauges,
    the [sat.*] search counters (decisions, propagations, conflicts,
    restarts, learnt clauses/literals, minimised_literals), the
    [blast.cache_*] term-cache counters and the [rewrite.hits]
    word-level-rewrite counter.  Several solvers may share a registry
    — e.g. the explorer's emission solver and probe — and their
    contributions accumulate.

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
(** Opens a scope.  It first marks the SAT core's variable and clause
    counts and the blaster's caches, then allocates the scope's
    activation variable. *)

val pop : t -> unit
(** Closes the innermost scope: truncates the SAT core and the blaster
    back to the scope's mark, so afterwards {!size} is what it was
    before the matching {!push}, and freed variable numbers are reused
    by later terms.  The last model is dropped with them, so {!holds}
    is false and {!capture_model} is [None] until the next [Sat]
    answer.  Raises [Invalid_argument] when the scope stack is
    empty. *)

val assert_ : t -> Expr.t -> unit
(** Asserts a width-1 term in the current scope, as the clauses of
    {!Blast.clauses}, each guarded by the scope's activation literal:
    a conjunction is split into its conjuncts and a disjunction is one
    clause, so asserting [key == 0x0800] builds no gate. *)

val check : t -> result
(** Raises {!Sat.Budget_exhausted} when the SAT core gives up (see
    {!Sat.solve}); the check is still counted and timed, the last
    model stays in place, and the solver remains usable. *)

val check_assuming : t -> Expr.t list -> result
(** Checks the current assertions plus temporary width-1 assumptions
    that are not retained: each is blasted to one literal in the
    current scope and assumed.  Raises {!Sat.Budget_exhausted} like
    {!check}. *)

val suggest : t -> Expr.t -> Bitv.Bits.t -> unit
(** [suggest s var_term value] asks the SAT core to try [value] first
    for the bits of a variable term — a "soft" preference that costs no
    clauses, used to randomize free test inputs.  Only bits already
    blasted get a branching polarity; {!model_var} reads the others
    from [value].  Terms other than variables are ignored. *)

val model_var : t -> Expr.var -> Bitv.Bits.t
(** Value of a variable in the model of the last [Sat] answer.
    Variables that never appeared in an assertion are zero. *)

val model_taint : t -> int -> int -> Bitv.Bits.t
(** [model_taint s id width]: model value of a taint node. *)

val model_eval : t -> Expr.t -> Bitv.Bits.t
(** Evaluates any term under the last model. *)

val size : t -> int
(** Number of SAT variables the solver holds: it grows as terms are
    blasted and shrinks back on {!pop}. *)

val holds : t -> Expr.t -> bool
(** [holds s e]: the width-1 term [e] evaluates to true under the last
    [Sat] model (extended with zeros for variables the model does not
    mention); false when there is none, as after a {!pop}.  When it
    holds, the model also witnesses satisfiability of the current
    assertions plus [e], so no solver call is needed. *)

(** {1 Captured models}

    A captured model freezes the last satisfying assignment as a
    fixed total function over terms: assigned bits keep their value,
    unassigned bits and variables not blasted at capture read as zero
    (a sound extension for unconstrained bits).  It keeps its own copy
    of which SAT literals back which variable, so it stays valid while
    its solver goes on solving and popping, and after pops free
    variable numbers that later terms reuse.  The query cache uses
    them as satisfiability witnesses. *)

type model

val capture_model : t -> model option
(** The last [Sat] assignment, or [None] if no check has succeeded
    since the last {!pop}.  Shares the solver's snapshot (one byte per
    SAT variable, taken once per [Sat] answer, which the next [Sat]
    answer replaces rather than overwrites) and copies the blaster's
    variable and taint tables. *)

val frozen_eval : model -> Expr.t -> Bitv.Bits.t
(** Evaluates any term under the frozen assignment (unassigned and
    later-blasted bits read as zero, unlike {!model_var}, which falls
    back to suggested values). *)

val model_holds : model -> Expr.t -> bool
(** [model_holds m e]: the width-1 term [e] evaluates to true under
    the frozen assignment.  Time-stable: repeated calls always agree. *)

val model_bytes : model -> int
(** Approximate heap footprint, for cache accounting: one byte per SAT
    variable of the shared snapshot, the copied tables, and a fixed 64
    for the record. *)
