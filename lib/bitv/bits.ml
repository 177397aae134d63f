(* Arbitrary-width bitvectors stored LSB-first in a byte buffer.
   Invariant: bits at positions >= width are zero (canonical form), so
   structural equality of (width, data) is value equality.

   Byte-level layout: bit [i] is bit [i mod 8] of byte [i / 8].  The
   operations that move bits (concat, slice, zext, the shifts) build
   their result a byte at a time: output byte [j] is the 8 source bits
   that start at some bit offset ({!byte_at}), one or two source bytes
   combined with a shift, with out-of-range bits reading as zero; a
   width that is not a multiple of 8 is then masked back to canonical
   form ({!canon}).  [of_int], [to_int], [to_hex] and [popcount] read
   or write whole bytes too.  [init], [get], [sext] and the parsers of
   bit strings work bit by bit. *)

type t = { width : int; data : bytes }

let width v = v.width

let nbytes w = (w + 7) / 8

(* Zero out the unused high bits of the last byte. *)
let canon v =
  let w = v.width in
  let n = nbytes w in
  if n > 0 && w land 7 <> 0 then begin
    let mask = (1 lsl (w land 7)) - 1 in
    let last = Char.code (Bytes.get v.data (n - 1)) in
    Bytes.set v.data (n - 1) (Char.chr (last land mask))
  end;
  v

let byte v i = Char.code (Bytes.unsafe_get v.data i)

(* the 8 bits of [v] that start at bit [p] (which may be negative or
   past the width): bits outside [0, width) read as zero *)
let byte_at v p =
  let n = Bytes.length v.data in
  if p >= 0 then begin
    let q = p lsr 3 and r = p land 7 in
    if q >= n then 0
    else if r = 0 then byte v q
    else
      let lo = byte v q lsr r in
      if q + 1 < n then (lo lor (byte v (q + 1) lsl (8 - r))) land 0xff else lo
  end
  else if p <= -8 || n = 0 then 0
  else (byte v 0 lsl -p) land 0xff

(* a canonical width-[w] vector whose byte [j] is [f j] *)
let of_bytes_fn w f =
  let n = nbytes w in
  let data = Bytes.create n in
  for j = 0 to n - 1 do
    Bytes.unsafe_set data j (Char.unsafe_chr (f j))
  done;
  canon { width = w; data }

let make w = { width = w; data = Bytes.make (nbytes w) '\000' }

let zero w =
  if w < 0 then invalid_arg "Bits.zero: negative width";
  make w

let ones w =
  if w < 0 then invalid_arg "Bits.ones: negative width";
  let v = { width = w; data = Bytes.make (nbytes w) '\255' } in
  canon v

let get v i =
  if i < 0 || i >= v.width then invalid_arg "Bits.get: index out of range";
  Char.code (Bytes.get v.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Internal: set bit in a mutable buffer under construction. *)
let set_bit data i b =
  let byte = Char.code (Bytes.get data (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.set data (i lsr 3) (Char.chr byte)

let init w f =
  if w < 0 then invalid_arg "Bits.init: negative width";
  let v = make w in
  for i = 0 to w - 1 do
    if f i then set_bit v.data i true
  done;
  v

let of_int ~width:w n =
  if w < 0 then invalid_arg "Bits.of_int: negative width";
  (* [asr] keeps the sign in the bits above 62; from byte 8 on every
     bit is the sign *)
  let fill = if n < 0 then 0xff else 0 in
  of_bytes_fn w (fun j -> if j < 8 then (n asr (8 * j)) land 0xff else fill)

let of_bool_list bs =
  let n = List.length bs in
  let v = make n in
  List.iteri (fun i b -> if b then set_bit v.data (n - 1 - i) true) bs;
  v

let to_bool_list v =
  (* MSB-first: bit (width-1) first. *)
  let rec go i acc = if i < 0 then acc else go (i - 1) (get v i :: acc) in
  List.rev (go (v.width - 1) [])

let of_bin s =
  let n = String.length s in
  let v = make n in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set_bit v.data (n - 1 - i) true
      | _ -> invalid_arg "Bits.of_bin: expected only 0 and 1")
    s;
  v

let to_bin v =
  String.init v.width (fun i -> if get v (v.width - 1 - i) then '1' else '0')

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bits.of_hex: bad hex digit"

let of_hex ~width:w s =
  if w < 0 then invalid_arg "Bits.of_hex: negative width";
  let digits =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  let v = make w in
  (* Last digit holds bits 0..3, previous 4..7, etc. *)
  List.iteri
    (fun i c ->
      let d = hex_digit c in
      let pos = 4 * (List.length digits - 1 - i) in
      for b = 0 to 3 do
        if pos + b < w && d land (1 lsl b) <> 0 then set_bit v.data (pos + b) true
      done)
    digits;
  v

let to_hex v =
  let ndigits = if v.width = 0 then 0 else (v.width + 3) / 4 in
  (* a digit is a nibble of one byte; bits past the width are zero *)
  String.init ndigits (fun i ->
      let pos = 4 * (ndigits - 1 - i) in
      "0123456789ABCDEF".[(byte v (pos lsr 3) lsr (pos land 7)) land 0xf])

let random st w =
  let v = make w in
  for i = 0 to nbytes w - 1 do
    Bytes.set v.data i (Char.chr (Random.State.int st 256))
  done;
  canon v

(* the low [min width 62] bits, from at most the first 8 bytes *)
let to_int v =
  let r = ref 0 in
  for j = min (Bytes.length v.data) 8 - 1 downto 0 do
    r := (!r lsl 8) lor byte v j
  done;
  if v.width > 62 then !r land ((1 lsl 62) - 1) else !r

let is_zero v = Bytes.for_all (fun c -> c = '\000') v.data

(* no bit at or above 62 is set *)
let to_int_checked v =
  let n = Bytes.length v.data in
  let rec clear j = j >= n || (byte v j = 0 && clear (j + 1)) in
  if (n < 8 || byte v 7 land 0xc0 = 0) && clear 8 then Some (to_int v) else None

let popcount_byte =
  let t = Array.make 256 0 in
  for i = 1 to 255 do
    t.(i) <- t.(i lsr 1) + (i land 1)
  done;
  t

let popcount v =
  let c = ref 0 in
  for j = 0 to Bytes.length v.data - 1 do
    c := !c + Array.unsafe_get popcount_byte (byte v j)
  done;
  !c

let is_ones v = popcount v = v.width
let msb v = v.width > 0 && get v (v.width - 1)

(* [lo] fills the low bytes; [hi] is ORed in from bit [lo.width],
   into bytes where [lo]'s canonical high bits are zero *)
let concat hi lo =
  let w = hi.width + lo.width in
  let data = Bytes.make (nbytes w) '\000' in
  Bytes.blit lo.data 0 data 0 (Bytes.length lo.data);
  let q = lo.width lsr 3 and r = lo.width land 7 in
  let n = Bytes.length data in
  for j = 0 to Bytes.length hi.data - 1 do
    let b = byte hi j in
    if r = 0 then Bytes.unsafe_set data (q + j) (Char.unsafe_chr b)
    else begin
      let k = q + j in
      Bytes.unsafe_set data k
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get data k) lor ((b lsl r) land 0xff)));
      if k + 1 < n then Bytes.unsafe_set data (k + 1) (Char.unsafe_chr (b lsr (8 - r)))
    end
  done;
  { width = w; data }

let slice v ~hi ~lo =
  if lo < 0 || hi < lo || hi >= v.width then
    invalid_arg "Bits.slice: bounds out of range";
  of_bytes_fn (hi - lo + 1) (fun j -> byte_at v (lo + (8 * j)))

let zext v w =
  if w < 0 then invalid_arg "Bits.zext: negative width";
  let data = Bytes.make (nbytes w) '\000' in
  Bytes.blit v.data 0 data 0 (min (Bytes.length v.data) (Bytes.length data));
  canon { width = w; data }

let sext v w =
  if w < 0 then invalid_arg "Bits.sext: negative width";
  if v.width = 0 then zero w
  else init w (fun i -> if i < v.width then get v i else msb v)

let check_same_width name a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bits.%s: width mismatch (%d vs %d)" name a.width b.width)

let map2_bytes f a b =
  let v = make a.width in
  for i = 0 to Bytes.length a.data - 1 do
    Bytes.set v.data i
      (Char.chr (f (Char.code (Bytes.get a.data i)) (Char.code (Bytes.get b.data i)) land 0xff))
  done;
  canon v

let logand a b = check_same_width "logand" a b; map2_bytes ( land ) a b
let logor a b = check_same_width "logor" a b; map2_bytes ( lor ) a b
let logxor a b = check_same_width "logxor" a b; map2_bytes ( lxor ) a b

let lognot a =
  let v = make a.width in
  for i = 0 to Bytes.length a.data - 1 do
    Bytes.set v.data i (Char.chr (lnot (Char.code (Bytes.get a.data i)) land 0xff))
  done;
  canon v

let add a b =
  check_same_width "add" a b;
  let v = make a.width in
  let carry = ref 0 in
  for i = 0 to Bytes.length a.data - 1 do
    let s = Char.code (Bytes.get a.data i) + Char.code (Bytes.get b.data i) + !carry in
    Bytes.set v.data i (Char.chr (s land 0xff));
    carry := s lsr 8
  done;
  canon v

let lognot_inplace_add1 a =
  (* two's complement negation *)
  let v = lognot a in
  let carry = ref 1 in
  let i = ref 0 in
  let n = Bytes.length v.data in
  while !carry > 0 && !i < n do
    let s = Char.code (Bytes.get v.data !i) + !carry in
    Bytes.set v.data !i (Char.chr (s land 0xff));
    carry := s lsr 8;
    incr i
  done;
  canon v

let neg a = lognot_inplace_add1 a
let sub a b = check_same_width "sub" a b; add a (neg b)

let mul a b =
  check_same_width "mul" a b;
  let w = a.width in
  let n = nbytes w in
  let acc = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    let ai = Char.code (Bytes.get a.data i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to n - 1 - i do
        let k = i + j in
        let s = Char.code (Bytes.get acc k) + (ai * Char.code (Bytes.get b.data j)) + !carry in
        Bytes.set acc k (Char.chr (s land 0xff));
        carry := s lsr 8
      done
    end
  done;
  canon { width = w; data = acc }

let ult a b =
  check_same_width "ult" a b;
  let rec go i =
    if i < 0 then false
    else
      let x = Char.code (Bytes.get a.data i) and y = Char.code (Bytes.get b.data i) in
      if x <> y then x < y else go (i - 1)
  in
  go (Bytes.length a.data - 1)

let ule a b = not (ult b a)

let slt a b =
  check_same_width "slt" a b;
  match (msb a, msb b) with
  | true, false -> true
  | false, true -> false
  | _ -> ult a b

let sle a b = not (slt b a)

let equal a b = a.width = b.width && Bytes.equal a.data b.data

(* structural, so equal vectors hash alike *)
let hash (v : t) = Hashtbl.hash v

let compare a b =
  if a.width <> b.width then Stdlib.compare a.width b.width
  else
    let rec go i =
      if i < 0 then 0
      else
        let c = Stdlib.compare (Bytes.get a.data i) (Bytes.get b.data i) in
        if c <> 0 then c else go (i - 1)
    in
    go (Bytes.length a.data - 1)

let shift_left a k =
  if k < 0 then invalid_arg "Bits.shift_left: negative amount";
  if k >= a.width then zero a.width else of_bytes_fn a.width (fun j -> byte_at a ((8 * j) - k))

let shift_right a k =
  if k < 0 then invalid_arg "Bits.shift_right: negative amount";
  if k >= a.width then zero a.width else of_bytes_fn a.width (fun j -> byte_at a ((8 * j) + k))

(* a negative value shifts as the complement of its complement's
   logical shift, which fills the top with ones *)
let shift_right_arith a k =
  if k < 0 then invalid_arg "Bits.shift_right_arith: negative amount";
  if msb a then lognot (shift_right (lognot a) k) else shift_right a k

let udiv a b =
  check_same_width "udiv" a b;
  if is_zero b then ones a.width
  else begin
    (* Long division, MSB first. *)
    let w = a.width in
    let q = make w in
    let r = ref (zero w) in
    for i = w - 1 downto 0 do
      r := shift_left !r 1;
      if get a i then r := logor !r (of_int ~width:w 1);
      if ule b !r then begin
        r := sub !r b;
        set_bit q.data i true
      end
    done;
    canon q
  end

let urem a b =
  check_same_width "urem" a b;
  if is_zero b then a
  else begin
    let w = a.width in
    let r = ref (zero w) in
    for i = w - 1 downto 0 do
      r := shift_left !r 1;
      if get a i then r := logor !r (of_int ~width:w 1);
      if ule b !r then r := sub !r b
    done;
    !r
  end

let pp ppf v = Format.fprintf ppf "0x%s/%d" (to_hex v) v.width
let to_string v = Format.asprintf "%a" pp v
