(** Word-level to bit-level translation (Tseitin encoding).

    A blaster owns caches mapping each hash-consed {!Expr.t} to an
    array of SAT literals (one per bit, LSB first).  Gates are
    structurally shared, so blasting the same subterm twice is free.

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

val var_bits : t -> Expr.var -> int array option
(** The literals backing a variable if it has been blasted. *)

val taint_bits : t -> int -> int array option
(** The literals backing taint node [id] if it has been blasted. *)

val cache_stats : t -> int * int
(** (hits, misses) of the blasted-term cache since creation — a hit is
    a {!bits} call answered without translating the term again. *)
