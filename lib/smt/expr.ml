module Bits = Bitv.Bits

type var = { vname : string; vwidth : int; vid : int }

(* Every term carries the context it was interned in; structural
   equality coincides with physical equality only within one context.
   The arena is keyed by the node hash (buckets scanned with shallow
   equality) because the recursive type group cannot reference a
   functor-generated hashtable of itself. *)
type t = { node : node; tag : int; width : int; tainted : bool; ctx : ctx }

and node =
  | Const of Bits.t
  | Var of var
  | Taint of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Udiv of t * t
  | Urem of t * t
  | Concat of t * t
  | Slice of t * int * int
  | Eq of t * t
  | Ult of t * t
  | Slt of t * t
  | Ite of t * t * t
  | Shl of t * t
  | Lshr of t * t
  | Ashr of t * t

and ctx = {
  ctx_id : int;
  arena : (int, t list) Hashtbl.t;  (** node hash -> interned terms *)
  mutable next_tag : int;
  registry : (string, var) Hashtbl.t;
  mutable next_vid : int;
  mutable fresh_counter : int;
  mutable next_taint : int;
  taint_memo : (int, Bits.t) Hashtbl.t;  (** term tag -> taint mask *)
  simp_memo : (int, t) Hashtbl.t;  (** term tag -> simplified form *)
  known_memo : (int, Bits.t * Bits.t) Hashtbl.t;  (** term tag -> known bits *)
  support_memo : (int, int array) Hashtbl.t;  (** term tag -> symbol support *)
  digest_memo : (int, string) Hashtbl.t;  (** term tag -> structural digest *)
  mutable rewrite_hits : int;  (** terms changed by {!simplify} *)
}

let ctx_counter = Atomic.make 0

let create_ctx () =
  {
    ctx_id = Atomic.fetch_and_add ctx_counter 1;
    arena = Hashtbl.create 4096;
    next_tag = 0;
    registry = Hashtbl.create 256;
    next_vid = 0;
    fresh_counter = 0;
    next_taint = 0;
    taint_memo = Hashtbl.create 1024;
    simp_memo = Hashtbl.create 4096;
    known_memo = Hashtbl.create 4096;
    support_memo = Hashtbl.create 4096;
    digest_memo = Hashtbl.create 1024;
    rewrite_hits = 0;
  }

let ctx_of e = e.ctx
let ctx_id c = c.ctx_id

let width e = e.width
let tainted e = e.tainted

(* ------------------------------------------------------------------ *)
(* Hash-consing.  Children of a node are already hash-consed, so
   shallow equality compares children by physical identity. *)

module Node_key = struct
  let child_tag e = e.tag

  let equal a b =
    match (a, b) with
    | Const x, Const y -> Bits.equal x y
    | Var x, Var y -> x.vid = y.vid
    | Taint x, Taint y -> x = y
    | Not x, Not y -> x == y
    | And (a1, a2), And (b1, b2)
    | Or (a1, a2), Or (b1, b2)
    | Xor (a1, a2), Xor (b1, b2)
    | Add (a1, a2), Add (b1, b2)
    | Sub (a1, a2), Sub (b1, b2)
    | Mul (a1, a2), Mul (b1, b2)
    | Udiv (a1, a2), Udiv (b1, b2)
    | Urem (a1, a2), Urem (b1, b2)
    | Concat (a1, a2), Concat (b1, b2)
    | Eq (a1, a2), Eq (b1, b2)
    | Ult (a1, a2), Ult (b1, b2)
    | Slt (a1, a2), Slt (b1, b2)
    | Shl (a1, a2), Shl (b1, b2)
    | Lshr (a1, a2), Lshr (b1, b2)
    | Ashr (a1, a2), Ashr (b1, b2) -> a1 == b1 && a2 == b2
    | Slice (a, h1, l1), Slice (b, h2, l2) -> a == b && h1 = h2 && l1 = l2
    | Ite (a1, a2, a3), Ite (b1, b2, b3) -> a1 == b1 && a2 == b2 && a3 == b3
    | ( ( Const _ | Var _ | Taint _ | Not _ | And _ | Or _ | Xor _ | Add _
        | Sub _ | Mul _ | Udiv _ | Urem _ | Concat _ | Slice _ | Eq _ | Ult _
        | Slt _ | Ite _ | Shl _ | Lshr _ | Ashr _ ),
        _ ) -> false

  let hash n =
    let h2 k a b = (k * 1000003) + (child_tag a * 31) + child_tag b in
    match n with
    | Const b -> Bits.hash b
    | Var v -> Hashtbl.hash (1, v.vid)
    | Taint i -> Hashtbl.hash (2, i)
    | Not a -> Hashtbl.hash (3, a.tag)
    | And (a, b) -> h2 4 a b
    | Or (a, b) -> h2 5 a b
    | Xor (a, b) -> h2 6 a b
    | Add (a, b) -> h2 7 a b
    | Sub (a, b) -> h2 8 a b
    | Mul (a, b) -> h2 9 a b
    | Udiv (a, b) -> h2 10 a b
    | Urem (a, b) -> h2 11 a b
    | Concat (a, b) -> h2 12 a b
    | Slice (a, h, l) -> Hashtbl.hash (13, a.tag, h, l)
    | Eq (a, b) -> h2 14 a b
    | Ult (a, b) -> h2 15 a b
    | Slt (a, b) -> h2 16 a b
    | Ite (a, b, c) -> Hashtbl.hash (17, a.tag, b.tag, c.tag)
    | Shl (a, b) -> h2 18 a b
    | Lshr (a, b) -> h2 19 a b
    | Ashr (a, b) -> h2 20 a b
end

let node_tainted = function
  | Const _ | Var _ -> false
  | Taint _ -> true
  | Not a -> a.tainted
  | And (a, b) | Or (a, b) | Xor (a, b) | Add (a, b) | Sub (a, b) | Mul (a, b)
  | Udiv (a, b) | Urem (a, b) | Concat (a, b) | Eq (a, b) | Ult (a, b)
  | Slt (a, b) | Shl (a, b) | Lshr (a, b) | Ashr (a, b) -> a.tainted || b.tainted
  | Slice (a, _, _) -> a.tainted
  | Ite (a, b, c) -> a.tainted || b.tainted || c.tainted

let mk ctx node width =
  let h = Node_key.hash node in
  let bucket = Option.value (Hashtbl.find_opt ctx.arena h) ~default:[] in
  match List.find_opt (fun e -> Node_key.equal e.node node) bucket with
  | Some e -> e
  | None ->
      let e = { node; tag = ctx.next_tag; width; tainted = node_tainted node; ctx } in
      ctx.next_tag <- ctx.next_tag + 1;
      Hashtbl.replace ctx.arena h (e :: bucket);
      e

let check_ctx name a b =
  if a.ctx != b.ctx then
    invalid_arg
      (Printf.sprintf "Expr.%s: terms from different contexts (#%d vs #%d)" name
         a.ctx.ctx_id b.ctx.ctx_id)

(* ------------------------------------------------------------------ *)
(* Variables *)

let var ctx name w =
  match Hashtbl.find_opt ctx.registry name with
  | Some v ->
      if v.vwidth <> w then
        invalid_arg
          (Printf.sprintf "Expr.var: %s already has width %d (asked %d)" name
             v.vwidth w);
      mk ctx (Var v) w
  | None ->
      let v = { vname = name; vwidth = w; vid = ctx.next_vid } in
      ctx.next_vid <- ctx.next_vid + 1;
      Hashtbl.add ctx.registry name v;
      mk ctx (Var v) w

let var_of e =
  match e.node with
  | Var v -> v
  | _ -> invalid_arg "Expr.var_of: not a variable"

let fresh_var ctx prefix w =
  ctx.fresh_counter <- ctx.fresh_counter + 1;
  var ctx (Printf.sprintf "%s!%d" prefix ctx.fresh_counter) w

let fresh_taint ctx w =
  ctx.next_taint <- ctx.next_taint + 1;
  mk ctx (Taint ctx.next_taint) w

(* ------------------------------------------------------------------ *)
(* Smart constructors.  Leaves take the context explicitly; compound
   constructors inherit it from their operands. *)

let const ctx b = mk ctx (Const b) (Bits.width b)
let of_int ctx ~width n = const ctx (Bits.of_int ~width n)
let zero ctx w = const ctx (Bits.zero w)
let ones ctx w = const ctx (Bits.ones w)
let tru ctx = const ctx (Bits.ones 1)
let fls ctx = const ctx (Bits.zero 1)
let of_bool ctx b = if b then tru ctx else fls ctx

let is_const e = match e.node with Const b -> Some b | _ -> None
let is_true e = match e.node with Const b -> Bits.is_ones b && Bits.width b = 1 | _ -> false
let is_false e = match e.node with Const b -> Bits.is_zero b && Bits.width b = 1 | _ -> false

let check_width name a b =
  check_ctx name a b;
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Expr.%s: width mismatch (%d vs %d)" name a.width b.width)

let lognot a =
  match a.node with
  | Const b -> const a.ctx (Bits.lognot b)
  | Not x -> x
  | _ -> mk a.ctx (Not a) a.width

let rec logand a b =
  check_width "logand" a b;
  match (a.node, b.node) with
  | Const x, Const y -> const a.ctx (Bits.logand x y)
  | Const _, _ -> logand b a
  | _, Const y when Bits.is_zero y -> b
  | _, Const y when Bits.is_ones y -> a
  | _ when a == b && not a.tainted -> a
  | _ -> mk a.ctx (And (a, b)) a.width

let rec logor a b =
  check_width "logor" a b;
  match (a.node, b.node) with
  | Const x, Const y -> const a.ctx (Bits.logor x y)
  | Const _, _ -> logor b a
  | _, Const y when Bits.is_zero y -> a
  | _, Const y when Bits.is_ones y -> b
  | _ when a == b && not a.tainted -> a
  | _ -> mk a.ctx (Or (a, b)) a.width

let rec logxor a b =
  check_width "logxor" a b;
  match (a.node, b.node) with
  | Const x, Const y -> const a.ctx (Bits.logxor x y)
  | Const _, _ -> logxor b a
  | _, Const y when Bits.is_zero y -> a
  | _, Const y when Bits.is_ones y -> lognot a
  | _ when a == b && not a.tainted -> zero a.ctx a.width
  | _ -> mk a.ctx (Xor (a, b)) a.width

let rec add a b =
  check_width "add" a b;
  match (a.node, b.node) with
  | Const x, Const y -> const a.ctx (Bits.add x y)
  | Const _, _ -> add b a
  | _, Const y when Bits.is_zero y -> a
  | _ -> mk a.ctx (Add (a, b)) a.width

let sub a b =
  check_width "sub" a b;
  match (a.node, b.node) with
  | Const x, Const y -> const a.ctx (Bits.sub x y)
  | _, Const y when Bits.is_zero y -> a
  | _ when a == b && not a.tainted -> zero a.ctx a.width
  | _ -> mk a.ctx (Sub (a, b)) a.width

let neg a = sub (zero a.ctx a.width) a

let rec mul a b =
  check_width "mul" a b;
  match (a.node, b.node) with
  | Const x, Const y -> const a.ctx (Bits.mul x y)
  | Const _, _ -> mul b a
  (* Taint-elimination: anything times zero is zero (§5.3). *)
  | _, Const y when Bits.is_zero y -> b
  | _, Const y when Bits.equal y (Bits.of_int ~width:(Bits.width y) 1) -> a
  | _ -> mk a.ctx (Mul (a, b)) a.width

let udiv a b =
  check_width "udiv" a b;
  match (a.node, b.node) with
  | Const x, Const y -> const a.ctx (Bits.udiv x y)
  | _ -> mk a.ctx (Udiv (a, b)) a.width

let urem a b =
  check_width "urem" a b;
  match (a.node, b.node) with
  | Const x, Const y -> const a.ctx (Bits.urem x y)
  | _ -> mk a.ctx (Urem (a, b)) a.width

let rec concat hi lo =
  check_ctx "concat" hi lo;
  if hi.width = 0 then lo
  else if lo.width = 0 then hi
  else
    match (hi.node, lo.node) with
    | Const x, Const y -> const hi.ctx (Bits.concat x y)
    (* Merge adjacent slices of the same base term. *)
    | Slice (a, h1, l1), Slice (b, h2, l2) when a == b && l1 = h2 + 1 ->
        slice a ~hi:h1 ~lo:l2
    | _ -> mk hi.ctx (Concat (hi, lo)) (hi.width + lo.width)

and slice e ~hi ~lo =
  if lo < 0 || hi < lo || hi >= e.width then
    invalid_arg
      (Printf.sprintf "Expr.slice: [%d:%d] out of range for width %d" hi lo
         e.width);
  if lo = 0 && hi = e.width - 1 then e
  else
    match e.node with
    | Const b -> const e.ctx (Bits.slice b ~hi ~lo)
    | Slice (x, _, l) -> slice x ~hi:(l + hi) ~lo:(l + lo)
    | Concat (h, l) ->
        if hi < l.width then slice l ~hi ~lo
        else if lo >= l.width then slice h ~hi:(hi - l.width) ~lo:(lo - l.width)
        else
          concat (slice h ~hi:(hi - l.width) ~lo:0) (slice l ~hi:(l.width - 1) ~lo)
    | Ite (c, t, f) when not c.tainted ->
        (* Push slices into ite so packet reconstruction stays sliceable. *)
        mk e.ctx (Ite (c, slice t ~hi ~lo, slice f ~hi ~lo)) (hi - lo + 1)
    | _ -> mk e.ctx (Slice (e, hi, lo)) (hi - lo + 1)

and ite c t f =
  if c.width <> 1 then invalid_arg "Expr.ite: condition width must be 1";
  check_ctx "ite" c t;
  check_width "ite" t f;
  match c.node with
  | Const b -> if Bits.is_ones b then t else f
  | _ when t == f -> t
  | _ when is_true t && is_false f -> c
  | _ when is_false t && is_true f -> lognot c
  | _ -> mk c.ctx (Ite (c, t, f)) t.width

let zext e w =
  if w < e.width then slice e ~hi:(w - 1) ~lo:0
  else if w = e.width then e
  else concat (zero e.ctx (w - e.width)) e

let sext e w =
  if w < e.width then slice e ~hi:(w - 1) ~lo:0
  else if w = e.width then e
  else if e.width = 0 then zero e.ctx w
  else
    let sign = slice e ~hi:(e.width - 1) ~lo:(e.width - 1) in
    concat (ite sign (ones e.ctx (w - e.width)) (zero e.ctx (w - e.width))) e

let rec eq a b =
  check_width "eq" a b;
  match (a.node, b.node) with
  | Const x, Const y -> of_bool a.ctx (Bits.equal x y)
  | _ when a == b && not a.tainted -> tru a.ctx
  | Const _, _ -> eq b a
  (* eq over concats decomposes into per-part equalities. *)
  | Concat (h, l), Const _ ->
      let bh = slice b ~hi:(a.width - 1) ~lo:l.width in
      let bl = slice b ~hi:(l.width - 1) ~lo:0 in
      band (eq h bh) (eq l bl)
  | _ -> mk a.ctx (Eq (a, b)) 1

and band a b =
  if a.width <> 1 || b.width <> 1 then invalid_arg "Expr.band: width 1 expected";
  logand a b

let bor a b =
  if a.width <> 1 || b.width <> 1 then invalid_arg "Expr.bor: width 1 expected";
  logor a b

let bnot a =
  if a.width <> 1 then invalid_arg "Expr.bnot: width 1 expected";
  lognot a

let neq a b = bnot (eq a b)

let ult a b =
  check_width "ult" a b;
  match (a.node, b.node) with
  | Const x, Const y -> of_bool a.ctx (Bits.ult x y)
  | _, Const y when Bits.is_zero y -> fls a.ctx
  | _ when a == b && not a.tainted -> fls a.ctx
  | _ -> mk a.ctx (Ult (a, b)) 1

let slt a b =
  check_width "slt" a b;
  match (a.node, b.node) with
  | Const x, Const y -> of_bool a.ctx (Bits.slt x y)
  | _ when a == b && not a.tainted -> fls a.ctx
  | _ -> mk a.ctx (Slt (a, b)) 1

let ule a b = bnot (ult b a)
let ugt a b = ult b a
let uge a b = ule b a
let sle a b = bnot (slt b a)
let sgt a b = slt b a
let sge a b = sle b a

let mk_shift ctor fold a b =
  check_width "shift" a b;
  match (a.node, b.node) with
  | Const x, Const y -> (
      match Bits.to_int_checked y with
      | Some k when k <= Bits.width x -> const a.ctx (fold x k)
      | _ -> const a.ctx (fold x (Bits.width x)))
  | _, Const y when Bits.is_zero y -> a
  | _ -> mk a.ctx (ctor a b) a.width

let shl a b = mk_shift (fun a b -> Shl (a, b)) Bits.shift_left a b
let lshr a b = mk_shift (fun a b -> Lshr (a, b)) Bits.shift_right a b
let ashr a b = mk_shift (fun a b -> Ashr (a, b)) Bits.shift_right_arith a b

let conj ctx es = List.fold_left band (tru ctx) es

(* ------------------------------------------------------------------ *)
(* Taint mask *)

let rec taint_mask e =
  if not e.tainted then Bits.zero e.width
  else
    match Hashtbl.find_opt e.ctx.taint_memo e.tag with
    | Some m -> m
    | None ->
        let m = compute_taint e in
        Hashtbl.add e.ctx.taint_memo e.tag m;
        m

and compute_taint e =
  let all = Bits.ones e.width in
  match e.node with
  | Const _ | Var _ -> Bits.zero e.width
  | Taint _ -> all
  | Not a -> taint_mask a
  | And (a, b) | Or (a, b) | Xor (a, b) -> Bits.logor (taint_mask a) (taint_mask b)
  | Add (a, b) | Sub (a, b) ->
      (* Carries propagate upward only: everything at or above the
         lowest tainted bit is tainted. *)
      let m = Bits.logor (taint_mask a) (taint_mask b) in
      upward_closure m
  | Mul (a, b) | Udiv (a, b) | Urem (a, b) ->
      if Bits.is_zero (Bits.logor (taint_mask a) (taint_mask b)) then
        Bits.zero e.width
      else all
  | Concat (h, l) -> Bits.concat (taint_mask h) (taint_mask l)
  | Slice (a, hi, lo) -> Bits.slice (taint_mask a) ~hi ~lo
  | Eq (a, b) | Ult (a, b) | Slt (a, b) ->
      if a.tainted || b.tainted then all else Bits.zero 1
  | Ite (c, t, f) ->
      if c.tainted then all else Bits.logor (taint_mask t) (taint_mask f)
  | Shl (a, b) | Lshr (a, b) | Ashr (a, b) ->
      if b.tainted then all
      else (
        match b.node with
        | Const k -> (
            match Bits.to_int_checked k with
            | Some k when k <= e.width -> (
                match e.node with
                | Shl _ -> Bits.shift_left (taint_mask a) k
                | Lshr _ -> Bits.shift_right (taint_mask a) k
                | _ -> if Bits.is_zero (taint_mask a) then Bits.zero e.width else all)
            | _ -> Bits.zero e.width)
        | _ -> if a.tainted then all else Bits.zero e.width)

and upward_closure m =
  let w = Bits.width m in
  let rec lowest i = if i >= w then None else if Bits.get m i then Some i else lowest (i + 1) in
  match lowest 0 with
  | None -> m
  | Some i -> Bits.concat (Bits.ones (w - i)) (Bits.zero i)

(* ------------------------------------------------------------------ *)
(* Traversals *)

let vars e =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go e =
    if not (Hashtbl.mem seen e.tag) then begin
      Hashtbl.add seen e.tag ();
      match e.node with
      | Var v -> acc := v :: !acc
      | Const _ | Taint _ -> ()
      | Not a | Slice (a, _, _) -> go a
      | And (a, b) | Or (a, b) | Xor (a, b) | Add (a, b) | Sub (a, b)
      | Mul (a, b) | Udiv (a, b) | Urem (a, b) | Concat (a, b) | Eq (a, b)
      | Ult (a, b) | Slt (a, b) | Shl (a, b) | Lshr (a, b) | Ashr (a, b) ->
          go a; go b
      | Ite (a, b, c) -> go a; go b; go c
    end
  in
  go e;
  List.sort (fun a b -> compare a.vid b.vid) !acc

(* Symbol support for the independence slicer (Qcache): variables map
   to even ids (2*vid), taint atoms to odd ids (2*id+1), so a single
   int namespace covers both kinds of free symbol without collision.
   Supports are sorted deduplicated arrays, merged bottom-up and
   memoised per hash-consed tag in the term's context, so the memo
   never leaks across contexts. *)

let sym_of_var v = 2 * v.vid
let sym_of_taint id = (2 * id) + 1

let merge_syms (a : int array) (b : int array) : int array =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else begin
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then (out.(!k) <- x; incr i)
      else if y < x then (out.(!k) <- y; incr j)
      else (out.(!k) <- x; incr i; incr j);
      incr k
    done;
    while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let support e =
  let rec go e =
    match Hashtbl.find_opt e.ctx.support_memo e.tag with
    | Some s -> s
    | None ->
        let s =
          match e.node with
          | Const _ -> [||]
          | Var v -> [| sym_of_var v |]
          | Taint id -> [| sym_of_taint id |]
          | Not a | Slice (a, _, _) -> go a
          | And (a, b) | Or (a, b) | Xor (a, b) | Add (a, b) | Sub (a, b)
          | Mul (a, b) | Udiv (a, b) | Urem (a, b) | Concat (a, b) | Eq (a, b)
          | Ult (a, b) | Slt (a, b) | Shl (a, b) | Lshr (a, b) | Ashr (a, b) ->
              merge_syms (go a) (go b)
          | Ite (a, b, c) -> merge_syms (go a) (merge_syms (go b) (go c))
        in
        Hashtbl.add e.ctx.support_memo e.tag s;
        s
  in
  go e

(* Structural digest: a context-independent fingerprint of the term
   DAG, memoised per tag.  Variables hash by name and width (names are
   stable across separate compilations of the same program), so equal digests identify structurally identical
   constraints even when they live in different contexts — the
   property the cross-request UNSAT cache relies on. *)
let digest e =
  let rec go e =
    match Hashtbl.find_opt e.ctx.digest_memo e.tag with
    | Some d -> d
    | None ->
        let buf = Buffer.create 64 in
        let kind k = Buffer.add_char buf (Char.chr (k + 33)) in
        let num n = Buffer.add_string buf (string_of_int n); Buffer.add_char buf ';' in
        (match e.node with
        | Const b -> kind 0; num (Bits.width b); Buffer.add_string buf (Bits.to_hex b)
        | Var v -> kind 1; num v.vwidth; Buffer.add_string buf v.vname
        | Taint id -> kind 2; num e.width; num id
        | Not a -> kind 3; Buffer.add_string buf (go a)
        | And (a, b) -> kind 4; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Or (a, b) -> kind 5; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Xor (a, b) -> kind 6; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Add (a, b) -> kind 7; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Sub (a, b) -> kind 8; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Mul (a, b) -> kind 9; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Udiv (a, b) -> kind 10; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Urem (a, b) -> kind 11; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Concat (a, b) -> kind 12; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Slice (a, hi, lo) -> kind 13; num hi; num lo; Buffer.add_string buf (go a)
        | Eq (a, b) -> kind 14; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Ult (a, b) -> kind 15; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Slt (a, b) -> kind 16; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Ite (a, b, c) ->
            kind 17; Buffer.add_string buf (go a); Buffer.add_string buf (go b);
            Buffer.add_string buf (go c)
        | Shl (a, b) -> kind 18; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Lshr (a, b) -> kind 19; Buffer.add_string buf (go a); Buffer.add_string buf (go b)
        | Ashr (a, b) -> kind 20; Buffer.add_string buf (go a); Buffer.add_string buf (go b));
        let d = Digest.string (Buffer.contents buf) in
        Hashtbl.add e.ctx.digest_memo e.tag d;
        d
  in
  go e

let eval ?(taint = fun _ w -> Bits.zero w) env e =
  let memo = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo e.tag with
    | Some v -> v
    | None ->
        let v = compute e in
        Hashtbl.add memo e.tag v;
        v
  and compute e =
    let shift_amount b =
      let v = go b in
      match Bits.to_int_checked v with
      | Some k -> min k (Bits.width v + 1)
      | None -> e.width
    in
    match e.node with
    | Const b -> b
    | Var v -> (
        let b = env v in
        if Bits.width b <> v.vwidth then
          invalid_arg (Printf.sprintf "Expr.eval: env width mismatch for %s" v.vname);
        b)
    | Taint id -> taint id e.width
    | Not a -> Bits.lognot (go a)
    | And (a, b) -> Bits.logand (go a) (go b)
    | Or (a, b) -> Bits.logor (go a) (go b)
    | Xor (a, b) -> Bits.logxor (go a) (go b)
    | Add (a, b) -> Bits.add (go a) (go b)
    | Sub (a, b) -> Bits.sub (go a) (go b)
    | Mul (a, b) -> Bits.mul (go a) (go b)
    | Udiv (a, b) -> Bits.udiv (go a) (go b)
    | Urem (a, b) -> Bits.urem (go a) (go b)
    | Concat (h, l) -> Bits.concat (go h) (go l)
    | Slice (a, hi, lo) -> Bits.slice (go a) ~hi ~lo
    | Eq (a, b) -> if Bits.equal (go a) (go b) then Bits.ones 1 else Bits.zero 1
    | Ult (a, b) -> if Bits.ult (go a) (go b) then Bits.ones 1 else Bits.zero 1
    | Slt (a, b) -> if Bits.slt (go a) (go b) then Bits.ones 1 else Bits.zero 1
    | Ite (c, t, f) -> if Bits.is_ones (go c) then go t else go f
    | Shl (a, b) -> Bits.shift_left (go a) (shift_amount b)
    | Lshr (a, b) -> Bits.shift_right (go a) (shift_amount b)
    | Ashr (a, b) -> Bits.shift_right_arith (go a) (shift_amount b)
  in
  go e

let subst f e =
  let memo = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo e.tag with
    | Some v -> v
    | None ->
        let v = compute e in
        Hashtbl.add memo e.tag v;
        v
  and compute e =
    match e.node with
    | Const _ | Taint _ -> e
    | Var v -> ( match f v with Some r -> r | None -> e)
    | Not a -> lognot (go a)
    | And (a, b) -> logand (go a) (go b)
    | Or (a, b) -> logor (go a) (go b)
    | Xor (a, b) -> logxor (go a) (go b)
    | Add (a, b) -> add (go a) (go b)
    | Sub (a, b) -> sub (go a) (go b)
    | Mul (a, b) -> mul (go a) (go b)
    | Udiv (a, b) -> udiv (go a) (go b)
    | Urem (a, b) -> urem (go a) (go b)
    | Concat (h, l) -> concat (go h) (go l)
    | Slice (a, hi, lo) -> slice (go a) ~hi ~lo
    | Eq (a, b) -> eq (go a) (go b)
    | Ult (a, b) -> ult (go a) (go b)
    | Slt (a, b) -> slt (go a) (go b)
    | Ite (c, t, f') -> ite (go c) (go t) (go f')
    | Shl (a, b) -> shl (go a) (go b)
    | Lshr (a, b) -> lshr (go a) (go b)
    | Ashr (a, b) -> ashr (go a) (go b)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Word-level simplification.

   Applied at assert time, before bit-blasting: terms the rewrite
   discharges never reach the CNF layer.  Two cooperating analyses:

   - [known_bits e] computes per-bit constantness (mask, value): bit i
     of [e] equals bit i of [value] whenever bit i of [mask] is set,
     for every assignment of variables and taints.
   - [simplify e] rebuilds the term bottom-up through the smart
     constructors (re-running constant folding and the structural
     rules on simplified children) and applies known-bits rules the
     constructors cannot see: fully-determined terms collapse to
     constants, comparisons between terms with disjoint value ranges
     collapse to booleans, and nested [Ite]s sharing a hash-consed
     condition drop their dead arm.

   Both are memoised in the context, so the incremental explorer pays
   for each distinct subterm once. *)

let all_known m = Bits.is_ones m

(* contiguous known LSBs of (mask), as a count *)
let known_lsbs m =
  let w = Bits.width m in
  let rec go i = if i < w && Bits.get m i then go (i + 1) else i in
  go 0

let rec known_bits e =
  match e.node with
  | Const b -> (Bits.ones e.width, b)
  | Var _ | Taint _ -> (Bits.zero e.width, Bits.zero e.width)
  | _ -> (
      match Hashtbl.find_opt e.ctx.known_memo e.tag with
      | Some k -> k
      | None ->
          let k = compute_known e in
          Hashtbl.add e.ctx.known_memo e.tag k;
          k)

and compute_known e =
  let nothing = (Bits.zero e.width, Bits.zero e.width) in
  match e.node with
  | Const b -> (Bits.ones e.width, b)
  | Var _ | Taint _ -> nothing
  | Not a ->
      let m, v = known_bits a in
      (m, Bits.logand m (Bits.lognot v))
  | And (a, b) ->
      let ma, va = known_bits a and mb, vb = known_bits b in
      (* known 0 where either side is known 0; known 1 where both are *)
      let zeros =
        Bits.logor
          (Bits.logand ma (Bits.lognot va))
          (Bits.logand mb (Bits.lognot vb))
      in
      let ones = Bits.logand (Bits.logand ma va) (Bits.logand mb vb) in
      (Bits.logor zeros ones, ones)
  | Or (a, b) ->
      let ma, va = known_bits a and mb, vb = known_bits b in
      let ones = Bits.logor (Bits.logand ma va) (Bits.logand mb vb) in
      let zeros =
        Bits.logand
          (Bits.logand ma (Bits.lognot va))
          (Bits.logand mb (Bits.lognot vb))
      in
      (Bits.logor zeros ones, ones)
  | Xor (a, b) ->
      let ma, va = known_bits a and mb, vb = known_bits b in
      let m = Bits.logand ma mb in
      (m, Bits.logand m (Bits.logxor va vb))
  | Add (a, b) | Sub (a, b) ->
      (* carries flow upward: the result is known below the lowest
         unknown bit of either operand *)
      let ma, va = known_bits a and mb, vb = known_bits b in
      let k = min (known_lsbs ma) (known_lsbs mb) in
      if k = 0 then nothing
      else
        let sum =
          match e.node with
          | Add _ -> Bits.add va vb
          | _ -> Bits.sub va vb
        in
        let m = Bits.concat (Bits.zero (e.width - k)) (Bits.ones k) in
        (m, Bits.logand m sum)
  | Mul _ | Udiv _ | Urem _ -> nothing
  | Concat (h, l) ->
      let mh, vh = known_bits h and ml, vl = known_bits l in
      (Bits.concat mh ml, Bits.concat vh vl)
  | Slice (a, hi, lo) ->
      let m, v = known_bits a in
      (Bits.slice m ~hi ~lo, Bits.slice v ~hi ~lo)
  | Eq (a, b) ->
      (* disagreement on a commonly-known bit decides the comparison *)
      let ma, va = known_bits a and mb, vb = known_bits b in
      let m = Bits.logand ma mb in
      if not (Bits.is_zero (Bits.logand m (Bits.logxor va vb))) then
        (Bits.ones 1, Bits.zero 1)
      else nothing
  | Ult (a, b) -> (
      match ult_by_range (known_bits a) (known_bits b) with
      | Some r -> (Bits.ones 1, if r then Bits.ones 1 else Bits.zero 1)
      | None -> nothing)
  | Slt _ -> nothing
  | Ite (_, t, f) ->
      let mt, vt = known_bits t and mf, vf = known_bits f in
      (* known where both arms are known and agree *)
      let m =
        Bits.logand (Bits.logand mt mf) (Bits.lognot (Bits.logxor vt vf))
      in
      (m, Bits.logand m vt)
  | Shl (a, b) | Lshr (a, b) | Ashr (a, b) -> (
      match b.node with
      | Const k -> (
          match Bits.to_int_checked k with
          | Some k when k <= e.width ->
              let m, v = known_bits a in
              let w = e.width in
              (* vacated positions are filled with a known constant,
                 so they join the known mask *)
              let low_ones = Bits.zext (Bits.ones (min k w)) w in
              let high_ones = Bits.shift_left low_ones (w - min k w) in
              (match e.node with
              | Shl _ ->
                  (Bits.logor (Bits.shift_left m k) low_ones, Bits.shift_left v k)
              | Lshr _ ->
                  (Bits.logor (Bits.shift_right m k) high_ones, Bits.shift_right v k)
              | _ ->
                  (* arithmetic shift: the fill copies the sign bit,
                     known only when the sign bit is known *)
                  if w > 0 && Bits.get m (w - 1) then
                    ( Bits.logor (Bits.shift_right m k) high_ones,
                      Bits.shift_right_arith (Bits.logand m v) k )
                  else
                    ( Bits.shift_right m k,
                      Bits.logand (Bits.shift_right m k) (Bits.shift_right v k) ))
          | _ -> nothing)
      | _ -> nothing)

(* unsigned range [lo, hi] of a term from its known bits: unknown bits
   range freely *)
and ult_by_range (ma, va) (mb, vb) =
  let lo m v = Bits.logand m v in
  let hi m v = Bits.logor (Bits.lognot m) (Bits.logand m v) in
  if Bits.ult (hi ma va) (lo mb vb) then Some true
  else if not (Bits.ult (lo ma va) (hi mb vb)) then Some false
  else None

let simplify e0 =
  let ctx = e0.ctx in
  let hit old knew = if knew != old then ctx.rewrite_hits <- ctx.rewrite_hits + 1 in
  let rec go e =
    match e.node with
    | Const _ | Var _ | Taint _ -> e
    | _ -> (
        match Hashtbl.find_opt ctx.simp_memo e.tag with
        | Some r -> r
        | None ->
            let r = post (rebuild e) in
            hit e r;
            Hashtbl.add ctx.simp_memo e.tag r;
            (* a simplified term is its own normal form *)
            if r != e && not (Hashtbl.mem ctx.simp_memo r.tag) then
              Hashtbl.add ctx.simp_memo r.tag r;
            r)
  (* bottom-up: the smart constructors re-run constant folding and the
     structural rules over the simplified children *)
  and rebuild e =
    match e.node with
    | Const _ | Var _ | Taint _ -> e
    | Not a -> lognot (go a)
    | And (a, b) -> logand (go a) (go b)
    | Or (a, b) -> logor (go a) (go b)
    | Xor (a, b) -> logxor (go a) (go b)
    | Add (a, b) -> add (go a) (go b)
    | Sub (a, b) -> sub (go a) (go b)
    | Mul (a, b) -> mul (go a) (go b)
    | Udiv (a, b) -> udiv (go a) (go b)
    | Urem (a, b) -> urem (go a) (go b)
    | Concat (h, l) -> concat (go h) (go l)
    | Slice (a, hi, lo) -> slice (go a) ~hi ~lo
    | Eq (a, b) -> eq_simp (go a) (go b)
    | Ult (a, b) -> ult (go a) (go b)
    | Slt (a, b) -> slt (go a) (go b)
    | Ite (c, t, f) -> ite_simp (go c) (go t) (go f)
    | Shl (a, b) -> shl (go a) (go b)
    | Lshr (a, b) -> lshr (go a) (go b)
    | Ashr (a, b) -> ashr (go a) (go b)
  (* equality over aligned concats splits into narrower equalities,
     exposing per-field constant folding *)
  and eq_simp a b =
    match (a.node, b.node) with
    | Concat (h1, l1), Concat (h2, l2) when l1.width = l2.width ->
        band (eq_simp h1 h2) (eq_simp l1 l2)
    | _ -> eq a b
  (* nested selections on the same hash-consed condition take the
     outer branch's arm; conditions are compared physically *)
  and ite_simp c t f =
    let t = match t.node with Ite (c', t', _) when c' == c -> t' | _ -> t in
    let f = match f.node with Ite (c', _, f') when c' == c -> f' | _ -> f in
    match c.node with
    | Not c' -> ite c' f t
    | _ -> ite c t f
  (* known-bits post-pass on the rebuilt node *)
  and post e =
    match e.node with
    | Const _ | Var _ | Taint _ -> e
    | _ ->
        let m, v = known_bits e in
        if all_known m then const ctx v else e
  in
  go e0

let rewrite_hits ctx = ctx.rewrite_hits

let rec pp ppf e =
  let open Format in
  match e.node with
  | Const b -> Bits.pp ppf b
  | Var v -> fprintf ppf "%s" v.vname
  | Taint id -> fprintf ppf "taint#%d/%d" id e.width
  | Not a -> fprintf ppf "(~ %a)" pp a
  | And (a, b) -> fprintf ppf "(%a & %a)" pp a pp b
  | Or (a, b) -> fprintf ppf "(%a | %a)" pp a pp b
  | Xor (a, b) -> fprintf ppf "(%a ^ %a)" pp a pp b
  | Add (a, b) -> fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> fprintf ppf "(%a * %a)" pp a pp b
  | Udiv (a, b) -> fprintf ppf "(%a / %a)" pp a pp b
  | Urem (a, b) -> fprintf ppf "(%a %% %a)" pp a pp b
  | Concat (a, b) -> fprintf ppf "(%a ++ %a)" pp a pp b
  | Slice (a, hi, lo) -> fprintf ppf "%a[%d:%d]" pp a hi lo
  | Eq (a, b) -> fprintf ppf "(%a == %a)" pp a pp b
  | Ult (a, b) -> fprintf ppf "(%a <u %a)" pp a pp b
  | Slt (a, b) -> fprintf ppf "(%a <s %a)" pp a pp b
  | Ite (c, t, f) -> fprintf ppf "(%a ? %a : %a)" pp c pp t pp f
  | Shl (a, b) -> fprintf ppf "(%a << %a)" pp a pp b
  | Lshr (a, b) -> fprintf ppf "(%a >> %a)" pp a pp b
  | Ashr (a, b) -> fprintf ppf "(%a >>a %a)" pp a pp b

let to_string e = Format.asprintf "%a" pp e
