(* Query cache: constraint-independence slicing + model reuse +
   UNSAT-slice memoisation (KLEE's counterexample-cache design,
   adapted to the explorer's DFS discipline).

   The explorer maintains the invariant that the *current path* (the
   DFS spine) is satisfiable: it only descends into branches whose
   feasibility was just established.  Under that
   invariant, the feasibility of path ∪ {c} only depends on the
   *slice* of c — the connected component of c in the constraint
   graph of path ∪ {c}, where two conditions are adjacent iff their
   free-symbol supports intersect:

   - if a total assignment satisfies every condition of the slice,
     path ∪ {c} is satisfiable (the rest of the path is satisfiable
     by the invariant, and its support is disjoint from the slice's,
     so the two partial models combine);
   - if path ∪ {c} is unsatisfiable, the slice alone is already
     unsatisfiable (same argument, contraposed).

   Three caches exploit this:

   1. a ring of captured models (from probe checks).  Any frozen
      total assignment satisfying the whole slice witnesses
      feasibility — provenance is irrelevant, so a model stays a
      witness after its solver pops the scopes it was found under;
   2. a SAT-set cache: every successful probe check proves the digest
      set of path ∪ {c} simultaneously satisfiable; a later slice
      that is a *subset* of a cached SAT set is satisfiable with no
      evaluation at all;
   3. an UNSAT-set cache keyed by the slice's canonical digest set; a
      later slice that is a *superset* of a cached UNSAT set is
      unsatisfiable.

   Digest sets are context-independent (Expr.digest hashes structure
   and variable names), so SAT/UNSAT sets — unlike models — can be
   shared across runs of the same program via a {!store}.

   Verdicts are objective: a verdict agrees with what a solver call
   would return, so caching changes which branches *pay* for their
   answer, never the answer — the explored tree, and therefore the
   emitted test suite, is identical with the cache on or off. *)

module Bits = Bitv.Bits

(* ------------------------------------------------------------------ *)
(* Undoable union-find over symbol ids.

   No path compression — finds stay O(log n) under union-by-size and
   every union is undone by exactly one trail entry, which is what
   lets the structure mirror the DFS spine's push/pop. *)

type uf = {
  parent : (int, int) Hashtbl.t;  (* sym -> direct parent; absent = root *)
  rank : (int, int) Hashtbl.t;  (* root -> component size; absent = 1 *)
  mutable trail : int list;  (* child roots, newest first *)
  mutable tlen : int;
}

let uf_create () =
  { parent = Hashtbl.create 256; rank = Hashtbl.create 256; trail = []; tlen = 0 }

let rec uf_find u s =
  match Hashtbl.find_opt u.parent s with
  | None -> s
  | Some p -> uf_find u p

let uf_size u s = Option.value (Hashtbl.find_opt u.rank s) ~default:1

let uf_union u a b =
  let ra = uf_find u a and rb = uf_find u b in
  if ra <> rb then begin
    let sa = uf_size u ra and sb = uf_size u rb in
    let child, root = if sa <= sb then (ra, rb) else (rb, ra) in
    Hashtbl.replace u.parent child root;
    Hashtbl.replace u.rank root (sa + sb);
    u.trail <- child :: u.trail;
    u.tlen <- u.tlen + 1
  end

(* undo unions until the trail is [n] long again *)
let uf_rewind u n =
  while u.tlen > n do
    match u.trail with
    | [] -> assert false
    | child :: rest ->
        let root = Hashtbl.find u.parent child in
        Hashtbl.remove u.parent child;
        Hashtbl.replace u.rank root (uf_size u root - uf_size u child);
        u.trail <- rest;
        u.tlen <- u.tlen - 1
  done

(* ------------------------------------------------------------------ *)
(* Digest sets: sorted arrays of structural digests with a 63-bit
   membership signature for fast subset prefiltering. *)

let sig_of_digest (d : string) = 1 lsl (Char.code d.[0] land 62)

let sig_of_members (ms : string array) =
  Array.fold_left (fun acc d -> acc lor sig_of_digest d) 0 ms

(* both sorted ascending: is every element of [a] in [b]? *)
let subset_sorted (a : string array) (b : string array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la then true
    else if j >= lb then false
    else
      let c = compare a.(i) b.(j) in
      if c = 0 then go (i + 1) (j + 1) else if c > 0 then go i (j + 1) else false
  in
  la <= lb && go 0 0

type dset = { members : string array; dsig : int }

let dset_of_list ds =
  let members = Array.of_list (List.sort_uniq compare ds) in
  { members; dsig = sig_of_members members }

let dset_key s = Digest.string (String.concat "" (Array.to_list s.members))
let dset_bytes s = (Array.length s.members * 24) + 48

(* bounded ring of digest sets, deduplicated by canonical key;
   [dring_insert] returns the byte-accounting delta *)
type dring = {
  slots : dset option array;
  index : (string, int) Hashtbl.t;  (* key -> slot *)
  mutable next : int;
}

(* capacity of each digest-set ring, and of each half of the store *)
let ring_slots = 512

let dring_create () =
  { slots = Array.make ring_slots None; index = Hashtbl.create 64; next = 0 }

let dring_insert r s =
  let key = dset_key s in
  if Hashtbl.mem r.index key then 0
  else begin
    let i = r.next in
    let freed =
      match r.slots.(i) with
      | Some old ->
          Hashtbl.remove r.index (dset_key old);
          dset_bytes old
      | None -> 0
    in
    r.slots.(i) <- Some s;
    Hashtbl.replace r.index key i;
    r.next <- (i + 1) mod Array.length r.slots;
    dset_bytes s - freed
  end

(* ------------------------------------------------------------------ *)
(* Cross-run store: SAT/UNSAT digest sets are pure facts about the
   program's constraints, so a serve daemon shares them between
   requests for the same fingerprint.  Models are not shared — they
   reference one run's blast tables. *)

type store = {
  st_mu : Mutex.t;
  st_sat : (string, dset) Hashtbl.t;
  st_unsat : (string, dset) Hashtbl.t;
}

let create_store () =
  {
    st_mu = Mutex.create ();
    st_sat = Hashtbl.create 64;
    st_unsat = Hashtbl.create 64;
  }

let store_entries st =
  Mutex.protect st.st_mu (fun () ->
      Hashtbl.length st.st_sat + Hashtbl.length st.st_unsat)

(* ------------------------------------------------------------------ *)

type cmodel = {
  cm : Solver.model;
  cm_memo : (int, bool) Hashtbl.t;  (* term tag -> verdict under cm *)
}

let cmodel_holds m (e : Expr.t) =
  match Hashtbl.find_opt m.cm_memo e.Expr.tag with
  | Some b -> b
  | None ->
      let b = Solver.model_holds m.cm e in
      Hashtbl.add m.cm_memo e.Expr.tag b;
      b

type cond = { q_expr : Expr.t; q_syms : int array; q_digest : string }

type cells = {
  c_slices : Obs.Counter.t;
  c_model_hits : Obs.Counter.t;
  c_witness_hits : Obs.Counter.t;
  c_unsat_hits : Obs.Counter.t;
  c_subsumed : Obs.Counter.t;
  c_avoided : Obs.Counter.t;
  g_bytes : Obs.Gauge.t;
}

let make_cells reg =
  {
    c_slices = Obs.Registry.counter reg "qcache.slices";
    c_model_hits = Obs.Registry.counter reg "qcache.model_hits";
    c_witness_hits = Obs.Registry.counter reg "qcache.witness_hits";
    c_unsat_hits = Obs.Registry.counter reg "qcache.unsat_hits";
    c_subsumed = Obs.Registry.counter reg "qcache.subsumed";
    c_avoided = Obs.Registry.counter reg "qcache.solver_checks_avoided";
    g_bytes = Obs.Registry.gauge reg "qcache.bytes";
  }

let model_ring_len = 8

type t = {
  cells : cells;
  uf : uf;
  mutable spine : (cond * int) list;  (* active conds + trail mark, newest first *)
  models : cmodel option array;  (* ring of assignment witnesses *)
  mutable mnext : int;
  sat_sets : dring;
  unsat_sets : dring;
  mutable bytes : int;
  store : store option;
  (* stashed by [check] for the follow-up note_* call *)
  mutable last_slice : dset option;
  mutable last_cdigest : string option;
}

let add_bytes t n =
  t.bytes <- t.bytes + n;
  Obs.Gauge.set t.cells.g_bytes t.bytes

let seed_from_store t =
  match t.store with
  | None -> ()
  | Some st ->
      Mutex.protect st.st_mu (fun () ->
          Hashtbl.iter (fun _ s -> add_bytes t (dring_insert t.sat_sets s)) st.st_sat;
          Hashtbl.iter
            (fun _ s -> add_bytes t (dring_insert t.unsat_sets s))
            st.st_unsat)

let create ?obs ?store () =
  let reg = match obs with Some r -> r | None -> Obs.Registry.create () in
  let t =
    {
      cells = make_cells reg;
      uf = uf_create ();
      spine = [];
      models = Array.make model_ring_len None;
      mnext = 0;
      sat_sets = dring_create ();
      unsat_sets = dring_create ();
      bytes = 0;
      store;
      last_slice = None;
      last_cdigest = None;
    }
  in
  seed_from_store t;
  t

let cond_of e = { q_expr = e; q_syms = Expr.support e; q_digest = Expr.digest e }

let link_uf u (syms : int array) =
  if Array.length syms > 1 then
    for i = 1 to Array.length syms - 1 do
      uf_union u syms.(0) syms.(i)
    done

let push t e =
  let mark = t.uf.tlen in
  let c = cond_of e in
  link_uf t.uf c.q_syms;
  t.spine <- (c, mark) :: t.spine

let pop t =
  match t.spine with
  | [] -> invalid_arg "Qcache.pop: empty spine"
  | (_, mark) :: rest ->
      uf_rewind t.uf mark;
      t.spine <- rest

(* the slice of a new condition: every active condition whose
   component root (in the union-find over the path alone) is the root
   of one of the condition's symbols *)
let slice_of t (csyms : int array) : cond list =
  let roots = Hashtbl.create 8 in
  Array.iter (fun s -> Hashtbl.replace roots (uf_find t.uf s) ()) csyms;
  let in_slice (c : cond) =
    Array.length c.q_syms > 0 && Hashtbl.mem roots (uf_find t.uf c.q_syms.(0))
  in
  List.filter in_slice (List.map fst t.spine)

type verdict = Sat_hit | Unsat_hit | Unknown

(* ------------------------------------------------------------------ *)
(* Syntactic witness finder.  Most first-visit misses are small SAT
   slices whose conditions are (possibly negated) key matches —
   [Eq (key-expr, const)].  Derive a candidate assignment from those
   equations and verify it by evaluating every slice condition; a
   candidate that evaluates them all to one is a genuine witness, so
   the verdict is exactly what a solver call would return.  Soundness
   never rests on the derivation heuristics — only on the final
   evaluation (taints are part of the assignment, fixed to zero). *)

let derive_bindings (conds : Expr.t list) : (int, Bits.t) Hashtbl.t =
  let b = Hashtbl.create 16 in
  let bind (v : Expr.var) bits =
    if not (Hashtbl.mem b v.Expr.vid) then Hashtbl.add b v.Expr.vid bits
  in
  (* equate a key expression with a constant, decomposing concats *)
  let rec bind_eq (e : Expr.t) (k : Bits.t) =
    match e.Expr.node with
    | Expr.Var v -> bind v k
    | Expr.Concat (h, l) ->
        let lw = l.Expr.width in
        bind_eq h (Bits.slice k ~hi:(e.Expr.width - 1) ~lo:lw);
        bind_eq l (Bits.slice k ~hi:(lw - 1) ~lo:0)
    | _ -> ()
  in
  let rec walk pos (e : Expr.t) =
    match e.Expr.node with
    | Expr.Not a when e.Expr.width = 1 -> walk (not pos) a
    | Expr.And (a, b) when pos && e.Expr.width = 1 ->
        walk pos a;
        walk pos b
    | Expr.Or (a, b) when (not pos) && e.Expr.width = 1 ->
        (* ¬(a ∨ b) forces ¬a and ¬b *)
        walk pos a;
        walk pos b
    | Expr.Eq (a, c) -> (
        match (a.Expr.node, c.Expr.node) with
        | _, Expr.Const k when pos -> bind_eq a k
        | Expr.Const k, _ when pos -> bind_eq c k
        | Expr.Var v, Expr.Const k | Expr.Const k, Expr.Var v ->
            (* negated match: any value but [k]; its complement always
               differs (width >= 1) *)
            bind v (Bits.lognot k)
        | _ -> ())
    | _ -> ()
  in
  List.iter (walk true) conds;
  b

let witness_sat (conds : Expr.t list) =
  let holds_all env =
    List.for_all (fun c -> Bits.is_ones (Expr.eval env c)) conds
  in
  let b = derive_bindings conds in
  let derived (v : Expr.var) =
    match Hashtbl.find_opt b v.Expr.vid with
    | Some k -> k
    | None -> Bits.zero v.Expr.vwidth
  in
  holds_all derived
  || holds_all (fun v -> Bits.zero v.Expr.vwidth)
  || holds_all (fun v -> Bits.ones v.Expr.vwidth)

let record_model t (m : Solver.model) =
  (match t.models.(t.mnext) with
  | Some old -> add_bytes t (-Solver.model_bytes old.cm)
  | None -> ());
  t.models.(t.mnext) <- Some { cm = m; cm_memo = Hashtbl.create 256 };
  add_bytes t (Solver.model_bytes m);
  t.mnext <- (t.mnext + 1) mod model_ring_len

let note_model t (m : Solver.model option) =
  match m with Some m -> record_model t m | None -> ()

let check t (e : Expr.t) : verdict =
  t.last_slice <- None;
  t.last_cdigest <- None;
  let csyms = Expr.support e in
  if Array.length csyms = 0 then begin
    (* closed condition: feasibility is its concrete value *)
    Obs.Counter.incr t.cells.c_avoided;
    if Bits.is_ones (Expr.eval (fun v -> Bits.zero v.Expr.vwidth) e) then Sat_hit
    else Unsat_hit
  end
  else begin
    Obs.Counter.incr t.cells.c_slices;
    let slice = slice_of t csyms in
    let cdigest = Expr.digest e in
    let sdset = dset_of_list (cdigest :: List.map (fun c -> c.q_digest) slice) in
    t.last_slice <- Some sdset;
    t.last_cdigest <- Some cdigest;
    (* 1. slice ⊆ a set already proven simultaneously satisfiable *)
    let sat_subsumed =
      Array.exists
        (function
          | Some s ->
              sdset.dsig land lnot s.dsig = 0 && subset_sorted sdset.members s.members
          | None -> false)
        t.sat_sets.slots
    in
    if sat_subsumed then begin
      Obs.Counter.incr t.cells.c_subsumed;
      Obs.Counter.incr t.cells.c_avoided;
      Sat_hit
    end
    else begin
      (* 2. some cached assignment satisfies the whole slice *)
      let model_hit =
        Array.exists
          (function
            | Some m ->
                cmodel_holds m e
                && List.for_all (fun c -> cmodel_holds m c.q_expr) slice
            | None -> false)
          t.models
      in
      if model_hit then begin
        Obs.Counter.incr t.cells.c_model_hits;
        Obs.Counter.incr t.cells.c_avoided;
        (* the slice is now known satisfiable as a set — remember it
           so structurally identical future slices shortcut at step 1 *)
        add_bytes t (dring_insert t.sat_sets sdset);
        Sat_hit
      end
      else begin
        (* 3. slice ⊇ a set already proven unsatisfiable *)
        let unsat_hit =
          Array.exists
            (function
              | Some s ->
                  s.dsig land lnot sdset.dsig = 0
                  && subset_sorted s.members sdset.members
              | None -> false)
            t.unsat_sets.slots
        in
        if unsat_hit then begin
          Obs.Counter.incr t.cells.c_unsat_hits;
          Obs.Counter.incr t.cells.c_avoided;
          Unsat_hit
        end
        else if witness_sat (e :: List.map (fun c -> c.q_expr) slice) then begin
          (* a derived assignment verified against the whole slice is
             as good a witness as a cached solver model *)
          Obs.Counter.incr t.cells.c_witness_hits;
          Obs.Counter.incr t.cells.c_avoided;
          add_bytes t (dring_insert t.sat_sets sdset);
          Sat_hit
        end
        else Unknown
      end
    end
  end

(* After a real probe check of path ∪ {c}: Sat proves the whole
   active digest set simultaneously satisfiable and yields a witness
   assignment; Unsat proves the stashed slice unsatisfiable. *)
let note_sat t (m : Solver.model option) =
  (match t.last_cdigest with
  | Some cd ->
      let path = cd :: List.map (fun (c, _) -> c.q_digest) t.spine in
      add_bytes t (dring_insert t.sat_sets (dset_of_list path))
  | None -> ());
  note_model t m

let note_unsat t =
  match t.last_slice with
  | Some s -> add_bytes t (dring_insert t.unsat_sets s)
  | None -> ()

(* fold this run's digest sets back into the shared store (bounded:
   the store never exceeds its capacity; arbitrary-but-deterministic
   eviction is fine because the store only affects speed) *)
let publish t =
  match t.store with
  | None -> ()
  | Some st ->
      Mutex.protect st.st_mu (fun () ->
          let put tbl s =
            let key = dset_key s in
            if (not (Hashtbl.mem tbl key)) && Hashtbl.length tbl < ring_slots then
              Hashtbl.add tbl key s
          in
          Array.iter
            (function Some s -> put st.st_sat s | None -> ())
            t.sat_sets.slots;
          Array.iter
            (function Some s -> put st.st_unsat s | None -> ())
            t.unsat_sets.slots)

(* ------------------------------------------------------------------ *)
(* Standalone partition into independence components, for tests and
   offline analysis: conditions land in the same component iff their
   supports are transitively connected; closed conditions (empty
   support) are singletons.  Component order follows first
   appearance; conditions keep their relative order within one. *)
let components (conds : Expr.t list) : Expr.t list list =
  let u = uf_create () in
  let cs = List.map cond_of conds in
  List.iter (fun c -> link_uf u c.q_syms) cs;
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  let singletons = ref [] in
  List.iter
    (fun c ->
      if Array.length c.q_syms = 0 then singletons := [ c.q_expr ] :: !singletons
      else begin
        let r = uf_find u c.q_syms.(0) in
        (match Hashtbl.find_opt groups r with
        | Some l -> Hashtbl.replace groups r (c.q_expr :: l)
        | None ->
            Hashtbl.add groups r [ c.q_expr ];
            order := r :: !order)
      end)
    cs;
  List.rev_map (fun r -> List.rev (Hashtbl.find groups r)) !order
  @ List.rev !singletons
