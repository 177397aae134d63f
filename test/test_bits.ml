(* Unit and property tests for the Bits bitvector substrate. *)

module Bits = Bitv.Bits

let check_bits = Alcotest.testable Bits.pp Bits.equal

let bits_of w n = Bits.of_int ~width:w n

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let test_basic () =
  Alcotest.(check int) "width zero" 5 (Bits.width (Bits.zero 5));
  Alcotest.(check bool) "is_zero" true (Bits.is_zero (Bits.zero 9));
  Alcotest.(check bool) "is_ones" true (Bits.is_ones (Bits.ones 9));
  Alcotest.(check int) "to_int" 42 (Bits.to_int (bits_of 16 42));
  Alcotest.(check check_bits) "of_int truncates" (bits_of 4 5) (bits_of 4 21);
  Alcotest.(check check_bits) "of_int negative" (Bits.ones 8) (bits_of 8 (-1))

let test_hex () =
  Alcotest.(check string) "to_hex" "BEEF" (Bits.to_hex (bits_of 16 0xBEEF));
  Alcotest.(check check_bits) "of_hex" (bits_of 16 0xBEEF)
    (Bits.of_hex ~width:16 "beef");
  Alcotest.(check check_bits) "of_hex underscore" (bits_of 16 0xBEEF)
    (Bits.of_hex ~width:16 "be_ef");
  Alcotest.(check string) "hex pads odd width" "1F" (Bits.to_hex (bits_of 5 0x1F));
  Alcotest.(check check_bits) "of_hex zext" (bits_of 20 0xBEEF)
    (Bits.of_hex ~width:20 "BEEF")

let test_bin () =
  Alcotest.(check string) "to_bin" "1010" (Bits.to_bin (bits_of 4 10));
  Alcotest.(check check_bits) "of_bin" (bits_of 4 10) (Bits.of_bin "1010");
  Alcotest.(check int) "of_bin width" 7 (Bits.width (Bits.of_bin "0001010"))

let test_concat_slice () =
  let a = bits_of 8 0xAB and b = bits_of 8 0xCD in
  let c = Bits.concat a b in
  Alcotest.(check int) "concat width" 16 (Bits.width c);
  Alcotest.(check string) "concat value" "ABCD" (Bits.to_hex c);
  Alcotest.(check check_bits) "slice hi" a (Bits.slice c ~hi:15 ~lo:8);
  Alcotest.(check check_bits) "slice lo" b (Bits.slice c ~hi:7 ~lo:0);
  Alcotest.(check check_bits) "slice mid" (bits_of 8 0xBC) (Bits.slice c ~hi:11 ~lo:4)

let test_arith () =
  Alcotest.(check check_bits) "add" (bits_of 8 5) (Bits.add (bits_of 8 250) (bits_of 8 11));
  Alcotest.(check check_bits) "sub wraps" (bits_of 8 0xFF) (Bits.sub (bits_of 8 0) (bits_of 8 1));
  Alcotest.(check check_bits) "mul" (bits_of 8 (21 * 9 mod 256)) (Bits.mul (bits_of 8 21) (bits_of 8 9));
  Alcotest.(check check_bits) "neg" (bits_of 8 (256 - 42)) (Bits.neg (bits_of 8 42));
  Alcotest.(check check_bits) "udiv" (bits_of 8 4) (Bits.udiv (bits_of 8 42) (bits_of 8 10));
  Alcotest.(check check_bits) "urem" (bits_of 8 2) (Bits.urem (bits_of 8 42) (bits_of 8 10));
  Alcotest.(check check_bits) "udiv by zero" (Bits.ones 8) (Bits.udiv (bits_of 8 42) (Bits.zero 8));
  Alcotest.(check check_bits) "urem by zero" (bits_of 8 42) (Bits.urem (bits_of 8 42) (Bits.zero 8))

let test_cmp () =
  Alcotest.(check bool) "ult" true (Bits.ult (bits_of 8 3) (bits_of 8 200));
  Alcotest.(check bool) "ult false" false (Bits.ult (bits_of 8 200) (bits_of 8 3));
  Alcotest.(check bool) "slt negative" true (Bits.slt (bits_of 8 200) (bits_of 8 3));
  Alcotest.(check bool) "sle equal" true (Bits.sle (bits_of 8 7) (bits_of 8 7))

let test_shift () =
  Alcotest.(check check_bits) "shl" (bits_of 8 0xF0) (Bits.shift_left (bits_of 8 0x0F) 4);
  Alcotest.(check check_bits) "lshr" (bits_of 8 0x0F) (Bits.shift_right (bits_of 8 0xF0) 4);
  Alcotest.(check check_bits) "ashr sign" (bits_of 8 0xFF) (Bits.shift_right_arith (bits_of 8 0x80) 7);
  Alcotest.(check check_bits) "shl overflow" (Bits.zero 8) (Bits.shift_left (bits_of 8 0xFF) 9)

let test_ext () =
  Alcotest.(check check_bits) "zext" (bits_of 16 0xAB) (Bits.zext (bits_of 8 0xAB) 16);
  Alcotest.(check check_bits) "sext pos" (bits_of 16 0x2B) (Bits.sext (bits_of 8 0x2B) 16);
  Alcotest.(check check_bits) "sext neg" (bits_of 16 0xFFAB) (Bits.sext (bits_of 8 0xAB) 16);
  Alcotest.(check check_bits) "zext truncates" (bits_of 4 0xB) (Bits.zext (bits_of 8 0xAB) 4)

let test_zero_width () =
  let z = Bits.zero 0 in
  Alcotest.(check int) "width" 0 (Bits.width z);
  Alcotest.(check check_bits) "concat left identity" (bits_of 8 7) (Bits.concat z (bits_of 8 7));
  Alcotest.(check check_bits) "concat right identity" (bits_of 8 7) (Bits.concat (bits_of 8 7) z);
  Alcotest.(check string) "hex empty" "" (Bits.to_hex z)

let test_wide () =
  (* 1500-byte packet-scale values *)
  let w = 1500 * 8 in
  let a = Bits.ones w in
  let b = Bits.add a (Bits.of_int ~width:w 1) in
  Alcotest.(check bool) "wide wraps to zero" true (Bits.is_zero b);
  let c = Bits.concat (bits_of 16 0xBEEF) (Bits.zero (w - 16)) in
  Alcotest.(check check_bits) "wide slice top" (bits_of 16 0xBEEF)
    (Bits.slice c ~hi:(w - 1) ~lo:(w - 16))

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_width = QCheck.Gen.int_range 1 80

let gen_bits =
  QCheck.Gen.(
    gen_width >>= fun w ->
    list_repeat w bool >|= fun bs -> Bits.of_bool_list bs)

let gen_pair_same_width =
  QCheck.Gen.(
    gen_width >>= fun w ->
    pair (list_repeat w bool) (list_repeat w bool) >|= fun (a, b) ->
    (Bits.of_bool_list a, Bits.of_bool_list b))

let arb_bits = QCheck.make ~print:Bits.to_string gen_bits

let arb_pair =
  QCheck.make
    ~print:(fun (a, b) -> Bits.to_string a ^ ", " ^ Bits.to_string b)
    gen_pair_same_width

let prop ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let props =
  [
    prop "hex roundtrip" arb_bits (fun v ->
        Bits.equal v (Bits.of_hex ~width:(Bits.width v) (Bits.to_hex v)));
    prop "bin roundtrip" arb_bits (fun v -> Bits.equal v (Bits.of_bin (Bits.to_bin v)));
    prop "bool-list roundtrip" arb_bits (fun v ->
        Bits.equal v (Bits.of_bool_list (Bits.to_bool_list v)));
    prop "add commutes" arb_pair (fun (a, b) -> Bits.equal (Bits.add a b) (Bits.add b a));
    prop "add/sub inverse" arb_pair (fun (a, b) ->
        Bits.equal a (Bits.sub (Bits.add a b) b));
    prop "neg involutive" arb_bits (fun v -> Bits.equal v (Bits.neg (Bits.neg v)));
    prop "lognot involutive" arb_bits (fun v -> Bits.equal v (Bits.lognot (Bits.lognot v)));
    prop "de morgan" arb_pair (fun (a, b) ->
        Bits.equal
          (Bits.lognot (Bits.logand a b))
          (Bits.logor (Bits.lognot a) (Bits.lognot b)));
    prop "xor self is zero" arb_bits (fun v -> Bits.is_zero (Bits.logxor v v));
    prop "concat then slice" arb_pair (fun (a, b) ->
        let c = Bits.concat a b in
        Bits.equal a (Bits.slice c ~hi:(Bits.width c - 1) ~lo:(Bits.width b))
        && Bits.equal b (Bits.slice c ~hi:(Bits.width b - 1) ~lo:0));
    prop "ult total vs compare" arb_pair (fun (a, b) ->
        Bits.ult a b = (Bits.compare a b < 0));
    prop "divmod identity" arb_pair (fun (a, b) ->
        QCheck.assume (not (Bits.is_zero b));
        Bits.equal a (Bits.add (Bits.mul (Bits.udiv a b) b) (Bits.urem a b)));
    prop "mul matches int mul (small)" arb_pair (fun (a, b) ->
        QCheck.assume (Bits.width a <= 20);
        let w = Bits.width a in
        Bits.to_int (Bits.mul a b) = (Bits.to_int a * Bits.to_int b) land ((1 lsl w) - 1));
    prop "add matches int add (small)" arb_pair (fun (a, b) ->
        QCheck.assume (Bits.width a <= 20);
        let w = Bits.width a in
        Bits.to_int (Bits.add a b) = (Bits.to_int a + Bits.to_int b) land ((1 lsl w) - 1));
    prop "shift left then right" arb_bits (fun v ->
        let w = Bits.width v in
        QCheck.assume (w >= 2);
        let k = w / 2 in
        let masked = Bits.shift_right (Bits.shift_left v k) k in
        Bits.equal masked (Bits.zext (Bits.slice v ~hi:(w - k - 1) ~lo:0) w));
    prop "sext preserves signed order" arb_pair (fun (a, b) ->
        Bits.slt a b = Bits.slt (Bits.sext a (Bits.width a + 7)) (Bits.sext b (Bits.width b + 7)));
    prop "zext preserves unsigned order" arb_pair (fun (a, b) ->
        Bits.ult a b = Bits.ult (Bits.zext a (Bits.width a + 7)) (Bits.zext b (Bits.width b + 7)));
  ]

(* ------------------------------------------------------------------ *)
(* Byte-level operations against a bit-at-a-time reference

   The references below build every result one bit at a time through
   [Bits.init] and [Bits.get], as the operations once did; the
   byte-level operations must agree with them on every width from 0 to
   300 and at every bit offset within a byte. *)

module Ref = struct
  let get = Bits.get
  let w = Bits.width

  let concat hi lo =
    Bits.init (w hi + w lo) (fun i -> if i < w lo then get lo i else get hi (i - w lo))

  let slice v ~hi ~lo = Bits.init (hi - lo + 1) (fun i -> get v (lo + i))
  let zext v n = Bits.init n (fun i -> i < w v && get v i)

  let sext v n =
    if w v = 0 then Bits.zero n else Bits.init n (fun i -> get v (if i < w v then i else w v - 1))

  let of_int ~width n = Bits.init width (fun i -> if i < 63 then (n asr i) land 1 = 1 else n < 0)

  let to_int v =
    let r = ref 0 in
    for i = min (w v) 62 - 1 downto 0 do
      r := (!r lsl 1) lor if get v i then 1 else 0
    done;
    !r

  let to_int_checked v =
    let rec clear i = i >= w v || ((not (get v i)) && clear (i + 1)) in
    if clear 62 then Some (to_int v) else None

  let to_hex v =
    let nd = if w v = 0 then 0 else (w v + 3) / 4 in
    String.init nd (fun i ->
        let pos = 4 * (nd - 1 - i) in
        let d = ref 0 in
        for b = 0 to 3 do
          if pos + b < w v && get v (pos + b) then d := !d lor (1 lsl b)
        done;
        "0123456789ABCDEF".[!d])

  let popcount v =
    let c = ref 0 in
    for i = 0 to w v - 1 do
      if get v i then incr c
    done;
    !c

  let is_ones v = popcount v = w v
  let shift_left a k = Bits.init (w a) (fun i -> i >= k && get a (i - k))
  let shift_right a k = Bits.init (w a) (fun i -> i + k < w a && get a (i + k))

  let shift_right_arith a k =
    Bits.init (w a) (fun i -> if i + k < w a then get a (i + k) else get a (w a - 1))
end

(* a width-[w] vector: all zeros, all ones, or uniform bits *)
let gen_of_width w =
  QCheck.Gen.(
    frequency
      [
        (1, return (Bits.zero w));
        (1, return (Bits.ones w));
        (6, list_repeat w bool >|= Bits.of_bool_list);
      ])

let gen_wide = QCheck.Gen.(int_range 0 300 >>= gen_of_width)
let arb_wide = QCheck.make ~print:Bits.to_string gen_wide

let arb_wide_pair =
  QCheck.make
    ~print:(fun (a, b) -> Bits.to_string a ^ ", " ^ Bits.to_string b)
    QCheck.Gen.(pair gen_wide gen_wide)

(* a vector with an in-range bit position (or shift amount up to and
   past the width) *)
let arb_with_pos ~past =
  QCheck.make
    ~print:(fun (v, k) -> Printf.sprintf "%s, %d" (Bits.to_string v) k)
    QCheck.Gen.(
      gen_wide >>= fun v ->
      int_range 0 (max 0 (Bits.width v - 1 + past)) >|= fun k -> (v, k))

let arb_slice =
  QCheck.make
    ~print:(fun (v, hi, lo) -> Printf.sprintf "%s [%d:%d]" (Bits.to_string v) hi lo)
    QCheck.Gen.(
      int_range 1 300 >>= gen_of_width >>= fun v ->
      int_range 0 (Bits.width v - 1) >>= fun lo ->
      int_range lo (Bits.width v - 1) >|= fun hi -> (v, hi, lo))

let arb_of_int =
  QCheck.make
    ~print:(fun (w, n) -> Printf.sprintf "width %d, %d" w n)
    QCheck.Gen.(
      pair (int_range 0 150)
        (oneof
           [
             int;
             int_range (-300) 300;
             oneofl [ min_int; max_int; -1; 0; 1 lsl 62; (1 lsl 62) - 1; -(1 lsl 61) ];
           ]))

let eq_bits = Bits.equal
let prop name arb f = prop ~count:1000 name arb f

let byte_props =
  [
    prop "concat = reference" arb_wide_pair (fun (a, b) ->
        eq_bits (Bits.concat a b) (Ref.concat a b));
    prop "slice = reference" arb_slice (fun (v, hi, lo) ->
        eq_bits (Bits.slice v ~hi ~lo) (Ref.slice v ~hi ~lo));
    prop "zext = reference" (arb_with_pos ~past:80) (fun (v, n) ->
        eq_bits (Bits.zext v n) (Ref.zext v n));
    prop "sext = reference" (arb_with_pos ~past:80) (fun (v, n) ->
        eq_bits (Bits.sext v n) (Ref.sext v n));
    prop "of_int = reference" arb_of_int (fun (width, n) ->
        eq_bits (Bits.of_int ~width n) (Ref.of_int ~width n));
    prop "to_int = reference" arb_wide (fun v -> Bits.to_int v = Ref.to_int v);
    prop "to_int_checked = reference" arb_wide (fun v ->
        Bits.to_int_checked v = Ref.to_int_checked v);
    prop "to_hex = reference" arb_wide (fun v -> Bits.to_hex v = Ref.to_hex v);
    prop "popcount = reference" arb_wide (fun v -> Bits.popcount v = Ref.popcount v);
    prop "is_ones = reference" arb_wide (fun v -> Bits.is_ones v = Ref.is_ones v);
    prop "shift_left = reference" (arb_with_pos ~past:10) (fun (v, k) ->
        eq_bits (Bits.shift_left v k) (Ref.shift_left v k));
    prop "shift_right = reference" (arb_with_pos ~past:10) (fun (v, k) ->
        eq_bits (Bits.shift_right v k) (Ref.shift_right v k));
    prop "shift_right_arith = reference" (arb_with_pos ~past:10) (fun (v, k) ->
        eq_bits (Bits.shift_right_arith v k) (Ref.shift_right_arith v k));
    (* equal values built along different routes hash alike *)
    prop "equal implies equal hash" arb_wide_pair (fun (a, b) ->
        let routes =
          [
            Bits.of_bin (Bits.to_bin a);
            Bits.of_hex ~width:(Bits.width a) (Bits.to_hex a);
            Bits.zext (Bits.zext a (Bits.width a + 9)) (Bits.width a);
            (if Bits.width a = 0 then a
             else
               Bits.slice (Bits.concat b (Bits.concat a b))
                 ~hi:(Bits.width a + Bits.width b - 1) ~lo:(Bits.width b));
          ]
        in
        List.for_all (fun a' -> Bits.equal a a' && Bits.hash a = Bits.hash a') routes
        && ((not (Bits.equal a b)) || Bits.hash a = Bits.hash b));
  ]

(* every pair of widths up to 24, so each operation meets every bit
   offset within a byte on both operands, with all-ones and
   alternating contents *)
let test_every_offset () =
  let pattern w = Bits.init w (fun i -> i mod 3 <> 1) in
  for wa = 0 to 24 do
    List.iter
      (fun a ->
        Alcotest.(check string) "to_hex" (Ref.to_hex a) (Bits.to_hex a);
        Alcotest.(check int) "popcount" (Ref.popcount a) (Bits.popcount a);
        Alcotest.(check bool) "is_ones" (Ref.is_ones a) (Bits.is_ones a);
        for wb = 0 to 24 do
          let b = pattern wb in
          Alcotest.(check check_bits) "concat" (Ref.concat a b) (Bits.concat a b);
          Alcotest.(check check_bits) "zext" (Ref.zext a wb) (Bits.zext a wb);
          Alcotest.(check check_bits) "sext" (Ref.sext a wb) (Bits.sext a wb)
        done;
        for k = 0 to wa + 1 do
          Alcotest.(check check_bits) "shl" (Ref.shift_left a k) (Bits.shift_left a k);
          Alcotest.(check check_bits) "lshr" (Ref.shift_right a k) (Bits.shift_right a k);
          Alcotest.(check check_bits) "ashr" (Ref.shift_right_arith a k)
            (Bits.shift_right_arith a k)
        done;
        for lo = 0 to wa - 1 do
          for hi = lo to wa - 1 do
            Alcotest.(check check_bits) "slice" (Ref.slice a ~hi ~lo) (Bits.slice a ~hi ~lo)
          done
        done)
      [ Bits.ones wa; pattern wa ]
  done

let () =
  Alcotest.run "bits"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "bin" `Quick test_bin;
          Alcotest.test_case "concat-slice" `Quick test_concat_slice;
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "cmp" `Quick test_cmp;
          Alcotest.test_case "shift" `Quick test_shift;
          Alcotest.test_case "ext" `Quick test_ext;
          Alcotest.test_case "zero-width" `Quick test_zero_width;
          Alcotest.test_case "wide" `Quick test_wide;
        ] );
      ("props", props);
      ( "byte-level",
        Alcotest.test_case "every bit offset" `Quick test_every_offset :: byte_props );
    ]
