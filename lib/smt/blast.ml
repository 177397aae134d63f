module Bits = Bitv.Bits

type t = {
  ectx : Expr.ctx; (* the only term context this blaster accepts *)
  sat : Sat.t;
  tt : int; (* literal that is always true *)
  expr_cache : (int, int array) Hashtbl.t; (* Expr tag -> bit literals *)
  var_cache : (int, int array) Hashtbl.t; (* var id -> bit literals *)
  taint_cache : (int, int array) Hashtbl.t; (* taint id -> bit literals *)
  gate_cache : (int, int) Hashtbl.t; (* packed gate key -> output literal *)
  (* every cache insertion in order, as (table, key) pairs of ints, so
     [truncate] can undo the ones made after a mark *)
  mutable log : int array;
  mutable log_len : int;
  (* term-level cache traffic, read by the solver's metrics flush *)
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let create ectx sat =
  let v = Sat.new_var sat in
  Sat.add_clause sat [ Sat.pos v ];
  {
    ectx;
    sat;
    tt = Sat.pos v;
    expr_cache = Hashtbl.create 1024;
    var_cache = Hashtbl.create 256;
    taint_cache = Hashtbl.create 64;
    gate_cache = Hashtbl.create 4096;
    log = Array.make 1024 0;
    log_len = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

(* the tables, as numbered in the log *)
let expr_t = 0
let var_t = 1
let taint_t = 2
let gate_t = 3

let log_insert b table key =
  if b.log_len + 2 > Array.length b.log then begin
    let d = Array.make (2 * Array.length b.log) 0 in
    Array.blit b.log 0 d 0 b.log_len;
    b.log <- d
  end;
  Array.unsafe_set b.log b.log_len table;
  Array.unsafe_set b.log (b.log_len + 1) key;
  b.log_len <- b.log_len + 2

type mark = int

let mark b = b.log_len

let truncate b m =
  while b.log_len > m do
    b.log_len <- b.log_len - 2;
    let table = b.log.(b.log_len) and key = b.log.(b.log_len + 1) in
    if table = expr_t then Hashtbl.remove b.expr_cache key
    else if table = var_t then Hashtbl.remove b.var_cache key
    else if table = taint_t then Hashtbl.remove b.taint_cache key
    else Hashtbl.remove b.gate_cache key
  done

let lit_true b = b.tt
let lit_false b = Sat.negate b.tt

(* ------------------------------------------------------------------ *)
(* Gates.  Each returns a literal defined by Tseitin clauses; results
   are cached structurally so shared subcircuits are built once. *)

let is_tt b l = l = b.tt
let is_ff b l = l = Sat.negate b.tt

(* Gate keys are packed into a single immediate int: the gate kind in
   the low 2 bits (and=0, xor=1, mux=2) and the operand literals in
   fixed-width fields above it — 30 bits each for the binary gates,
   20 bits each for mux.  Literals that overflow a field (hundreds of
   millions of SAT variables) fall back to building the gate uncached:
   correctness is unaffected, only sharing is lost. *)

let pack2 kind x y =
  if x < 0x4000_0000 && y < 0x4000_0000 then kind lor (x lsl 2) lor (y lsl 32) else -1

let pack_mux c t f =
  if c < 0x10_0000 && t < 0x10_0000 && f < 0x10_0000 then
    2 lor (c lsl 2) lor (t lsl 22) lor (f lsl 42)
  else -1

let gate b key build =
  if key < 0 then build ()
  else
    match Hashtbl.find_opt b.gate_cache key with
    | Some l -> l
    | None ->
        let l = build () in
        Hashtbl.add b.gate_cache key l;
        log_insert b gate_t key;
        l

let and2 b a c =
  if is_ff b a || is_ff b c then lit_false b
  else if is_tt b a then c
  else if is_tt b c then a
  else if a = c then a
  else if a = Sat.negate c then lit_false b
  else
    let x, y = if a < c then (a, c) else (c, a) in
    gate b (pack2 0 x y) (fun () ->
        let g = Sat.pos (Sat.new_var b.sat) in
        Sat.add_clause b.sat [ Sat.negate g; x ];
        Sat.add_clause b.sat [ Sat.negate g; y ];
        Sat.add_clause b.sat [ g; Sat.negate x; Sat.negate y ];
        g)

let or2 b a c = Sat.negate (and2 b (Sat.negate a) (Sat.negate c))

let xor2 b a c =
  if is_ff b a then c
  else if is_ff b c then a
  else if is_tt b a then Sat.negate c
  else if is_tt b c then Sat.negate a
  else if a = c then lit_false b
  else if a = Sat.negate c then lit_true b
  else
    (* normalize: strip negations into a parity bit *)
    let parity = (a land 1) lxor (c land 1) in
    let a' = a land lnot 1 and c' = c land lnot 1 in
    let x, y = if a' < c' then (a', c') else (c', a') in
    let g =
      gate b (pack2 1 x y) (fun () ->
          let g = Sat.pos (Sat.new_var b.sat) in
          Sat.add_clause b.sat [ Sat.negate g; x; y ];
          Sat.add_clause b.sat [ Sat.negate g; Sat.negate x; Sat.negate y ];
          Sat.add_clause b.sat [ g; Sat.negate x; y ];
          Sat.add_clause b.sat [ g; x; Sat.negate y ];
          g)
    in
    if parity = 1 then Sat.negate g else g

let mux b c t f =
  (* c ? t : f *)
  if is_tt b c then t
  else if is_ff b c then f
  else if t = f then t
  else if is_tt b t && is_ff b f then c
  else if is_ff b t && is_tt b f then Sat.negate c
  else
    gate b (pack_mux c t f) (fun () ->
        let g = Sat.pos (Sat.new_var b.sat) in
        Sat.add_clause b.sat [ Sat.negate c; Sat.negate t; g ];
        Sat.add_clause b.sat [ Sat.negate c; t; Sat.negate g ];
        Sat.add_clause b.sat [ c; Sat.negate f; g ];
        Sat.add_clause b.sat [ c; f; Sat.negate g ];
        g)

let full_adder b a c cin =
  let s = xor2 b (xor2 b a c) cin in
  let cout = or2 b (and2 b a c) (and2 b cin (xor2 b a c)) in
  (s, cout)

(* ripple-carry addition; returns (sum bits, carry out) *)
let adder b xs ys cin =
  let w = Array.length xs in
  let out = Array.make w (lit_false b) in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder b xs.(i) ys.(i) !carry in
    out.(i) <- s;
    carry := c
  done;
  (out, !carry)

let reduce_and b ls =
  (* balanced tree keeps gate depth logarithmic *)
  let rec go ls =
    match ls with
    | [] -> lit_true b
    | [ l ] -> l
    | _ ->
        let rec pair = function
          | x :: y :: rest -> and2 b x y :: pair rest
          | rest -> rest
        in
        go (pair ls)
  in
  go ls

let reduce_or b ls = Sat.negate (reduce_and b (List.map Sat.negate ls))

let eq_bits b xs ys =
  let ls = ref [] in
  for i = 0 to Array.length xs - 1 do
    ls := Sat.negate (xor2 b xs.(i) ys.(i)) :: !ls
  done;
  reduce_and b !ls

let ult_bits blaster xs ys =
  (* a < b iff no carry out of a + ~b + 1 *)
  let nys = Array.map Sat.negate ys in
  let _, carry = adder blaster xs nys (lit_true blaster) in
  Sat.negate carry

let slt_bits blaster xs ys =
  let w = Array.length xs in
  if w = 0 then lit_false blaster
  else
    let sx = xs.(w - 1) and sy = ys.(w - 1) in
    (* slt = ult XOR sign(a) XOR sign(b) *)
    xor2 blaster (ult_bits blaster xs ys) (xor2 blaster sx sy)

(* barrel shifter; [fill] supplies vacated bit positions *)
let shifter blaster dir xs amount fill =
  let w = Array.length xs in
  let nstages =
    let rec go k = if 1 lsl k >= w then k else go (k + 1) in
    if w <= 1 then 0 else go 1
  in
  let cur = ref (Array.copy xs) in
  for st = 0 to min (nstages - 1) (Array.length amount - 1) do
    let k = 1 lsl st in
    let bit = amount.(st) in
    let prev = !cur in
    let next =
      Array.init w (fun i ->
          let src =
            match dir with
            | `Left -> if i - k >= 0 then prev.(i - k) else fill
            | `Right -> if i + k < w then prev.(i + k) else fill
          in
          mux blaster bit src prev.(i))
    in
    cur := next
  done;
  (* any amount bit beyond the stages shifts everything out *)
  let high = ref [] in
  for i = nstages to Array.length amount - 1 do
    high := amount.(i) :: !high
  done;
  let oversize = reduce_or blaster !high in
  Array.map (fun l -> mux blaster oversize fill l) !cur

let mul_bits blaster xs ys =
  let w = Array.length xs in
  let acc = ref (Array.make w (lit_false blaster)) in
  for i = 0 to w - 1 do
    (* partial product: (ys_i ? xs : 0) << i *)
    let pp =
      Array.init w (fun j ->
          if j < i then lit_false blaster else and2 blaster ys.(i) xs.(j - i))
    in
    let sum, _ = adder blaster !acc pp (lit_false blaster) in
    acc := sum
  done;
  !acc

let divider blaster xs ys =
  (* restoring division, MSB first; returns (quotient, remainder);
     SMT-LIB semantics for zero divisor handled by caller *)
  let w = Array.length xs in
  let q = Array.make w (lit_false blaster) in
  let r = ref (Array.make w (lit_false blaster)) in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i *)
    let shifted = Array.init w (fun j -> if j = 0 then xs.(i) else !r.(j - 1)) in
    let ge = Sat.negate (ult_bits blaster shifted ys) in
    let nys = Array.map Sat.negate ys in
    let diff, _ = adder blaster shifted nys (lit_true blaster) in
    q.(i) <- ge;
    r := Array.init w (fun j -> mux blaster ge diff.(j) shifted.(j))
  done;
  (q, !r)

(* ------------------------------------------------------------------ *)
(* Word-level translation *)

let rec bits b (e : Expr.t) =
  if Expr.ctx_of e != b.ectx then
    invalid_arg "Blast.bits: term from a different Expr context";
  match Hashtbl.find_opt b.expr_cache e.Expr.tag with
  | Some ls ->
      b.cache_hits <- b.cache_hits + 1;
      ls
  | None ->
      b.cache_misses <- b.cache_misses + 1;
      let ls = translate b e in
      assert (Array.length ls = e.Expr.width);
      Hashtbl.add b.expr_cache e.Expr.tag ls;
      log_insert b expr_t e.Expr.tag;
      ls

and fresh_bits b w = Array.init w (fun _ -> Sat.pos (Sat.new_var b.sat))

and translate b (e : Expr.t) =
  let open Expr in
  match e.node with
  | Const c ->
      Array.init (Bits.width c) (fun i ->
          if Bits.get c i then lit_true b else lit_false b)
  | Var v -> (
      match Hashtbl.find_opt b.var_cache v.vid with
      | Some ls -> ls
      | None ->
          let ls = fresh_bits b v.vwidth in
          Hashtbl.add b.var_cache v.vid ls;
          log_insert b var_t v.vid;
          ls)
  | Taint id -> (
      match Hashtbl.find_opt b.taint_cache id with
      | Some ls -> ls
      | None ->
          let ls = fresh_bits b e.width in
          Hashtbl.add b.taint_cache id ls;
          log_insert b taint_t id;
          ls)
  | Not a -> Array.map Sat.negate (bits b a)
  | And (x, y) -> Array.map2 (and2 b) (bits b x) (bits b y)
  | Or (x, y) -> Array.map2 (or2 b) (bits b x) (bits b y)
  | Xor (x, y) -> Array.map2 (xor2 b) (bits b x) (bits b y)
  | Add (x, y) -> fst (adder b (bits b x) (bits b y) (lit_false b))
  | Sub (x, y) ->
      fst (adder b (bits b x) (Array.map Sat.negate (bits b y)) (lit_true b))
  | Mul (x, y) -> mul_bits b (bits b x) (bits b y)
  | Udiv (x, y) ->
      let xs = bits b x and ys = bits b y in
      let q, _ = divider b xs ys in
      (* division by zero yields all ones *)
      let yzero = Sat.negate (reduce_or b (Array.to_list ys)) in
      Array.map (fun l -> mux b yzero (lit_true b) l) q
  | Urem (x, y) ->
      let xs = bits b x and ys = bits b y in
      let _, r = divider b xs ys in
      let yzero = Sat.negate (reduce_or b (Array.to_list ys)) in
      Array.init (Array.length xs) (fun i -> mux b yzero xs.(i) r.(i))
  | Concat (hi, lo) -> Array.append (bits b lo) (bits b hi)
  | Slice (x, hi, lo) -> Array.sub (bits b x) lo (hi - lo + 1)
  | Eq (x, y) -> [| eq_bits b (bits b x) (bits b y) |]
  | Ult (x, y) -> [| ult_bits b (bits b x) (bits b y) |]
  | Slt (x, y) -> [| slt_bits b (bits b x) (bits b y) |]
  | Ite (c, t, f) ->
      let cl = (bits b c).(0) in
      Array.map2 (mux b cl) (bits b t) (bits b f)
  | Shl (x, y) -> shifter b `Left (bits b x) (bits b y) (lit_false b)
  | Lshr (x, y) -> shifter b `Right (bits b x) (bits b y) (lit_false b)
  | Ashr (x, y) ->
      let xs = bits b x in
      let w = Array.length xs in
      let fill = if w = 0 then lit_false b else xs.(w - 1) in
      shifter b `Right xs (bits b y) fill

let lit b e =
  let ls = bits b e in
  if Array.length ls <> 1 then invalid_arg "Blast.lit: width-1 term expected";
  ls.(0)

(* Asserting a width-1 term as clauses rather than as one Tseitin
   root: a conjunction (And, a negated Or, an Eq taken bit by bit) is
   split into its conjuncts, and a disjunction (Or, a negated And, a
   negated Eq as its bit differences) becomes one clause whose
   disjuncts are literals.  [pos] is the polarity a subterm is asserted
   with.  Constant literals are left to [Sat.add_clause], which drops a
   clause holding a true literal and removes false ones, so asserting
   [key == 0x0800] adds one unit per bit and builds no gate. *)
let clauses b e =
  if Expr.width e <> 1 then invalid_arg "Blast.clauses: width-1 term expected";
  let signed pos l = if pos then l else Sat.negate l in
  let cs = ref [] in
  let rec disj pos (e : Expr.t) ls =
    match (e.Expr.node, pos) with
    | Expr.Or (x, y), true | Expr.And (x, y), false -> disj pos y (disj pos x ls)
    | Expr.Not x, _ -> disj (not pos) x ls
    | Expr.Eq (x, y), false ->
        let xs = bits b x in
        let ys = bits b y in
        let ls = ref ls in
        Array.iteri (fun i xi -> ls := xor2 b xi ys.(i) :: !ls) xs;
        !ls
    | _ -> signed pos (lit b e) :: ls
  in
  let rec conj pos (e : Expr.t) =
    match (e.Expr.node, pos) with
    | Expr.And (x, y), true | Expr.Or (x, y), false ->
        conj pos x;
        conj pos y
    | Expr.Not x, _ -> conj (not pos) x
    | Expr.Eq (x, y), true ->
        let xs = bits b x in
        let ys = bits b y in
        Array.iteri
          (fun i xi -> cs := [ xi; Sat.negate ys.(i) ] :: [ Sat.negate xi; ys.(i) ] :: !cs)
          xs
    | Expr.Or _, true | Expr.And _, false | Expr.Eq _, false -> cs := disj pos e [] :: !cs
    | _ -> cs := [ signed pos (lit b e) ] :: !cs
  in
  conj true e;
  List.rev !cs

let var_bits b (v : Expr.var) = Hashtbl.find_opt b.var_cache v.Expr.vid
let taint_bits b id = Hashtbl.find_opt b.taint_cache id
let leaves b = (Hashtbl.copy b.var_cache, Hashtbl.copy b.taint_cache)
let cache_stats b = (b.cache_hits, b.cache_misses)
