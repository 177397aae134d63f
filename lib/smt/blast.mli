(** Word-level to bit-level translation (Tseitin encoding).

    A blaster owns caches mapping each hash-consed {!Expr.t} to an
    array of SAT literals (one per bit, LSB first).  Gates are
    structurally shared, so blasting the same subterm twice is free.
    Every cache insertion is logged, so {!truncate} can take the
    caches back to a {!mark}, the way {!Sat.truncate} takes the SAT
    core back to its own.

    A blaster is bound to one {!Expr.ctx}; terms from any other
    context are rejected (their tags would collide with cached
    entries). *)

type t

val create : Expr.ctx -> Sat.t -> t

val lit_true : t -> int
val lit_false : t -> int

val bits : t -> Expr.t -> int array
(** Literals of each bit of the term, allocating definitional clauses
    in the underlying SAT solver as needed. *)

val lit : t -> Expr.t -> int
(** The single literal of a width-1 term. *)

val clauses : t -> Expr.t -> int list list
(** Clauses whose conjunction holds exactly when the width-1 term is
    true, given the definitional clauses it allocates.  A top-level
    conjunction ([And], a negated [Or], an [Eq] taken bit by bit) yields
    one or more clauses per conjunct, a top-level disjunction ([Or], a
    negated [And], a negated [Eq] as its bit differences) one clause,
    and any other term the unit clause of its {!lit}.  Literals of
    constants stay in the clauses: {!Sat.add_clause} drops a clause
    holding a true literal and removes false ones. *)

type mark

val mark : t -> mark
(** The caches as they are now. *)

val truncate : t -> mark -> unit
(** Removes every cache entry inserted since the mark.  Called when the
    SAT core is truncated to the mark taken at the same time, so no
    entry refers to a freed variable. *)

val var_bits : t -> Expr.var -> int array option
(** The literals backing a variable if it has been blasted. *)

val taint_bits : t -> int -> int array option
(** The literals backing taint node [id] if it has been blasted. *)

val leaves : t -> (int, int array) Hashtbl.t * (int, int array) Hashtbl.t
(** Copies of the variable table (var id -> literals) and the taint
    table (taint id -> literals) as they are now; later blasting and
    {!truncate} leave the copies unchanged. *)

val cache_stats : t -> int * int
(** (hits, misses) of the blasted-term cache since creation — a hit is
    a {!bits} call answered without translating the term again. *)
