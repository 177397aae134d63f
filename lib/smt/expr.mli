(** Hash-consed bitvector terms.

    All terms are bitvectors; booleans are width-1 vectors ([tru] and
    [fls]).  Smart constructors perform constant folding and algebraic
    simplification, including the taint-elimination rewrites of the
    paper (§5.3), e.g. [mul taint zero = zero].

    Terms are hash-consed in an explicit {!ctx}: within one context,
    structurally equal terms are physically equal and share a [tag].
    [Taint] nodes are the exception — every call to {!fresh_taint}
    yields a distinct unknown.  Contexts are independent: creating one
    never invalidates another, so multiple symbolic-execution runs can
    coexist or run on different domains (one context must only be used
    by one domain at a time; the context itself is not thread-safe).
    Leaf constructors take the context explicitly; compound
    constructors inherit it from their operands and raise
    [Invalid_argument] when operands come from different contexts. *)

type ctx
(** A hash-consing arena plus variable registry, taint-id supply, and
    simplifier memo tables.  Cheap to create; dropped wholesale by the
    GC when the last term referencing it dies. *)

type var = private { vname : string; vwidth : int; vid : int }

type t = private { node : node; tag : int; width : int; tainted : bool; ctx : ctx }

and node =
  | Const of Bitv.Bits.t
  | Var of var
  | Taint of int  (** a fresh nondeterministic unknown (§5.3) *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Udiv of t * t
  | Urem of t * t
  | Concat of t * t  (** [Concat (hi, lo)] — P4's [hi ++ lo] *)
  | Slice of t * int * int  (** [Slice (e, hi, lo)], inclusive *)
  | Eq of t * t
  | Ult of t * t
  | Slt of t * t
  | Ite of t * t * t  (** condition has width 1 *)
  | Shl of t * t
  | Lshr of t * t
  | Ashr of t * t

val create_ctx : unit -> ctx
(** A fresh, empty term context.  Safe to call from any domain. *)

val ctx_of : t -> ctx
(** The context a term was interned in. *)

val ctx_id : ctx -> int
(** A process-unique id (diagnostics only). *)

val width : t -> int
val tainted : t -> bool

(** {1 Variables} *)

val var : ctx -> string -> int -> t
(** [var ctx name w] returns the (unique) variable [name] of width [w].
    Raises [Invalid_argument] if [name] exists with another width. *)

val var_of : t -> var
(** The variable underlying a [Var] term.  Raises otherwise. *)

val fresh_var : ctx -> string -> int -> t
(** [fresh_var ctx prefix w] mints a variable with a unique suffixed
    name. *)

val fresh_taint : ctx -> int -> t

(** {1 Constructors} *)

val const : ctx -> Bitv.Bits.t -> t
val of_int : ctx -> width:int -> int -> t
val zero : ctx -> int -> t
val ones : ctx -> int -> t
val tru : ctx -> t
val fls : ctx -> t
val of_bool : ctx -> bool -> t

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val concat : t -> t -> t
val slice : t -> hi:int -> lo:int -> t
val zext : t -> int -> t
val sext : t -> int -> t
val eq : t -> t -> t
val neq : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val sgt : t -> t -> t
val sge : t -> t -> t
val ite : t -> t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

(** Width-1 boolean helpers. *)

val band : t -> t -> t
val bor : t -> t -> t
val bnot : t -> t
val conj : ctx -> t list -> t

(** {1 Observation} *)

val is_const : t -> Bitv.Bits.t option
val is_true : t -> bool
val is_false : t -> bool

val taint_mask : t -> Bitv.Bits.t
(** Conservative per-bit taint: bit [i] set iff output bit [i] may
    depend on a nondeterministic source.  Arithmetic spreads taint
    upward from the lowest tainted operand bit (carry direction);
    comparisons and taint-conditioned [Ite]s taint every result bit. *)

val vars : t -> var list
(** All variables occurring in the term, each once, in [vid] order. *)

val support : t -> int array
(** Free-symbol support as a sorted array of symbol ids — variables
    at [2*vid], taint atoms at [2*id+1] — memoised per hash-consed
    tag.  Two terms interact (for independence slicing) iff their
    supports intersect. *)

val sym_of_var : var -> int
val sym_of_taint : int -> int
(** Conversions for the symbol-id namespace used by {!support}. *)

val digest : t -> string
(** Context-independent structural digest (16 raw bytes), memoised
    per tag.  Variables are identified by name and width, so equal
    digests mean structurally identical terms even across contexts —
    the key property behind the cross-request UNSAT-slice cache. *)

val eval : ?taint:(int -> int -> Bitv.Bits.t) -> (var -> Bitv.Bits.t) -> t -> Bitv.Bits.t
(** Concrete evaluation.  [taint id width] supplies values for taint
    nodes (defaults to zero). *)

val subst : (var -> t option) -> t -> t
(** Capture-free substitution of variables. *)

(** {1 Word-level simplification} *)

val simplify : t -> t
(** Word-level rewrite/normalisation, memoised in the term's context.
    Rebuilds the term bottom-up through the smart constructors
    (constant folding through concat/extract chains, [x = x] and
    nested-[Ite] elimination) and applies a known-bits analysis:
    fully-determined subterms collapse to constants and comparisons
    whose operands have disjoint unsigned ranges collapse to booleans.
    The result is equivalent for every assignment of variables and
    taints.  Applied by the solver at assert time so discharged terms
    never reach the CNF layer. *)

val known_bits : t -> Bitv.Bits.t * Bitv.Bits.t
(** [(mask, value)]: bit [i] of the term equals bit [i] of [value]
    whenever bit [i] of [mask] is set, under every assignment. *)

val rewrite_hits : ctx -> int
(** Terms changed by {!simplify} in this context so far (monotone;
    surfaced as the [rewrite.hits] metric). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
