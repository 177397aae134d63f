(** Arbitrary-width bitvectors.

    [Bits.t] is the value domain for P4 [bit<n>] data and for packets:
    an immutable vector of [width] bits with modular (two's-complement)
    arithmetic.  Bit 0 is the least-significant bit.  Packets are
    bitvectors whose most-significant bits are the first bits on the
    wire, so [concat] follows P4's [++]: [concat hi lo] places [hi]
    above [lo]. *)

type t

val width : t -> int

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zero vector of width [w]; [w >= 0]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] truncates the two's-complement representation of
    [n] to [width] bits. *)

val init : int -> (int -> bool) -> t
(** [init w f] is the width-[w] vector whose bit [i] is [f i], built
    in one pass ([f] is called once per bit, LSB first). *)

val of_bool_list : bool list -> t
(** [of_bool_list bs] builds a vector from MSB-first bits. *)

val of_bin : string -> t
(** [of_bin "1010"] parses an MSB-first binary string. *)

val of_hex : width:int -> string -> t
(** [of_hex ~width s] parses a hex string (MSB first, no prefix,
    underscores ignored) and truncates/zero-extends to [width]. *)

val random : Random.State.t -> int -> t
(** [random st w] draws [w] uniform bits. *)

(** {1 Observation} *)

val get : t -> int -> bool
(** [get v i] is bit [i] (LSB = 0).  Raises [Invalid_argument] when out
    of range. *)

val to_int : t -> int
(** Low [min width 62] bits as a non-negative OCaml int. *)

val to_int_checked : t -> int option
(** [Some] iff the value fits a non-negative OCaml int exactly. *)

val to_bin : t -> string
(** MSB-first binary string of length [width]. *)

val to_hex : t -> string
(** MSB-first hex string, [ceil (width / 4)] digits. *)

val to_bool_list : t -> bool list
(** MSB-first bit list. *)

val is_zero : t -> bool
val is_ones : t -> bool
val popcount : t -> int
val msb : t -> bool

(** {1 Structure} *)

val concat : t -> t -> t
(** [concat hi lo]: P4's [hi ++ lo]. *)

val slice : t -> hi:int -> lo:int -> t
(** [slice v ~hi ~lo]: P4's [v\[hi:lo\]], inclusive, width
    [hi - lo + 1].  Requires [0 <= lo <= hi < width v]. *)

val zext : t -> int -> t
(** [zext v w] zero-extends (or truncates) to width [w]. *)

val sext : t -> int -> t
(** [sext v w] sign-extends (or truncates) to width [w]. *)

(** {1 Bitwise and arithmetic operations}

    Binary operations require equal widths and raise
    [Invalid_argument] otherwise.  Arithmetic is modulo [2^width]. *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
(** Unsigned division; division by zero yields all-ones (SMT-LIB). *)

val urem : t -> t -> t
(** Unsigned remainder; remainder by zero yields the dividend. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Logical right shift. *)

val shift_right_arith : t -> int -> t

(** {1 Comparisons} *)

val equal : t -> t -> bool

val hash : t -> int
(** A hash consistent with {!equal}: equal vectors hash alike. *)

val compare : t -> t -> int
(** Total order: by width, then unsigned value. *)

val ult : t -> t -> bool
val ule : t -> t -> bool
val slt : t -> t -> bool
val sle : t -> t -> bool

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Prints [0xHH…/w]. *)

val to_string : t -> string
