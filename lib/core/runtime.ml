(* Central run-time representation for the symbolic executor.

   A {!state} is the paper's "independent execution state object" (§6):
   the symbolic environment, the continuation stack ({!work}),
   packet-sizing variables I/L/E (§5.2.1), control-plane objects,
   extern state, concolic call records, and coverage.  States are immutable; forking a path is
   ordinary functional update. *)

module Bits = Bitv.Bits
module Expr = Smt.Expr
module Env = Map.Make (String)
module IntSet = Set.Make (Int)
open P4

exception Exec_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Context: immutable program-wide data plus target hooks *)

type options = {
  unroll_bound : int;  (** parser-loop bound (visits per state per path) *)
  fixed_packet_bytes : int option;  (** precondition: exact input size *)
  apply_constraints : bool;  (** apply @entry_restriction preconditions *)
  randomize : bool;  (** prefer random values for free test inputs *)
  seed : int;
  seq_packets : int;
      (** packets injected per test sequence; extern state (registers,
          counters, meters) persists across the packet boundaries.  1
          (the default) is the historical single-packet mode. *)
}

let default_options =
  {
    unroll_bound = 3;
    fixed_packet_bytes = None;
    apply_constraints = true;
    randomize = true;
    seed = 1;
    seq_packets = 1;
  }

type ctx = {
  ectx : Expr.ctx;
      (** the run's term context; all terms of a run live here *)
  obs : Obs.Registry.t;
      (** the run's metrics registry; owned, like [ectx], by one
          domain at a time — the batch driver merges snapshots *)
  prog : Ast.program;
  tctx : Typing.ctx;
  parsers : (string, Ast.parser_decl) Hashtbl.t;
  controls : (string, Ast.control_decl) Hashtbl.t;
  nstmts : int;  (** total countable statements (coverage denominator) *)
  opts : options;
  rng : Random.State.t;
  extern_hook : extern_hook;  (** the target's extern dispatch *)
  reject_hook : reject_hook;  (** the target's parser-error semantics *)
  next_packet_hook : next_packet_hook;
      (** advances a finished pipeline to the next packet of a test
          sequence: {!Oracle.instantiate} composes {!next_packet} with
          the target's pipeline-template [init]. *)
  mutable uninit_is_zero : bool;
      (** target policy for uninitialized variables: BMv2 implicitly
          zero-initializes, Tofino leaves them undefined (Tbl. 6) *)
  mutable fresh_ctr : int;
}

and reject_hook = ctx -> frame -> string (* error constant name *) -> state -> branch list

and next_packet_hook = ctx -> state -> state

and extern_hook = ctx -> string -> Ast.expr list -> frame -> state -> extern_result

and extern_result =
  | RVal of state * Expr.t  (** expression-position extern: value result *)
  | RUnit of state  (** statement extern, single continuation *)
  | RBranch of branch list  (** forked continuations *)

and branch = { br_cond : Expr.t option; br_state : state; br_label : string }

and frame = {
  fr_scopes : string list;  (** env prefixes to search, innermost first *)
  fr_params : (string * (string * Ast.typ)) list;
      (** the block's [inout] and [out] parameters: name -> (the
          caller's storage path, declared type).  They are bound by
          reference and searched after [fr_scopes], so action
          parameters and block locals shadow them. *)
  fr_ctrl : Ast.control_decl option;  (** for action/table resolution *)
  fr_parser : Ast.parser_decl option;
}

and work =
  | WStmt of frame * Ast.stmt
  | WParserState of frame * string
  | WOp of string * (ctx -> state -> branch list)
      (** target glue / generic continuation (§5.1.2) *)
  | WExitFrame of exit_kind * string
      (** marks where a block or action ends: [return], [exit] and
          parser reject drop work up to it.  Leaving it does nothing,
          since parameters are bound by reference ({!frame}). *)

and exit_kind = KAction | KControl | KParserFrame

and concolic_call = {
  cc_var : Expr.t;  (** the placeholder variable *)
  cc_name : string;
  cc_args : Expr.t list;
  cc_impl : Bits.t list -> Bits.t;  (** concrete implementation *)
}

and sym_entry = {
  se_table : string;
  se_keys : (string * sym_key) list;
  se_action : string;
  se_args : (string * Expr.t) list;
  se_priority : int option;
}

and sym_key =
  | SkExact of Expr.t
  | SkTernary of Expr.t * Expr.t
  | SkLpm of Expr.t * int
  | SkRange of Expr.t * Expr.t
  | SkOptional of Expr.t option

and out_pkt = { o_port : Expr.t; o_data : Expr.t; o_note : string }

and pkt_record = {
  pd_chunks : Expr.t list;  (** input chunks of the packet, newest first *)
  pd_in_port : Expr.t;
  pd_outputs : out_pkt list;  (** newest first *)
  pd_dropped : bool;
}
(** A completed packet of a test sequence, archived at the boundary by
    {!next_packet}. *)

and state = {
  env : Expr.t Env.t;  (** leaf path -> value *)
  vartypes : Ast.typ Env.t;  (** declared variable path -> type *)
  work : work list;
  chunks : Expr.t list;  (** input chunks, newest first; I = concat (rev) *)
  live : Expr.t;  (** L *)
  emit_buf : Expr.t;  (** E *)
  sealed : bool;  (** input may not grow (a short-packet branch) *)
  in_port : Expr.t;
  entries : sym_entry list;  (** newest first *)
  registers : (string * Expr.t array) list;
  counters : (string * Expr.t array) list;
      (** counter extern cells (packet counts); taint-abstracted under
          symbolic indices, like registers *)
  meters : (string * Expr.t array) list;
      (** meter extern cells: the last recorded (tainted) color *)
  reg_inits : Testspec.register_init list;
  tbl_misses : (string * Expr.t list) list;
      (** newest first: programmable-table applications that took the
          miss branch (table name, evaluated key values).  The control
          plane is installed once for the whole test, so an entry
          synthesized by a LATER application of the same table — e.g.
          by the next packet of a sequence — must provably not match
          any of these keys, or the recorded miss would have been a
          hit on the real switch. *)
  covered : IntSet.t;
  concolic : concolic_call list;  (** newest first *)
  outputs : out_pkt list;  (** newest first *)
  dropped : bool;
  state_visits : int Env.t;
  recircs : int;
  phase : string;  (** target-defined pipeline phase (e.g. "ingress") *)
  ctrl_taint : bool;  (** control flow has branched on tainted data *)
  seq_left : int;  (** packets still to inject after the current one *)
  seq_done : pkt_record list;  (** archived packets, newest first *)
  trace : string list;  (** newest first *)
}

(* the frame of target glue that runs outside any block *)
let no_frame = { fr_scopes = []; fr_params = []; fr_ctrl = None; fr_parser = None }

(* The term context of a state, recovered from an always-present term
   (for helpers that do not receive the run context). *)
let state_ectx st = Expr.ctx_of st.live

let empty_bits ectx = Expr.zero ectx 0

let fresh_name ctx prefix =
  ctx.fresh_ctr <- ctx.fresh_ctr + 1;
  Printf.sprintf "%s@%d" prefix ctx.fresh_ctr

let fresh_var ctx prefix w = Expr.var ctx.ectx (fresh_name ctx prefix) w

(* Packet boundary of a test sequence (§5): archive the finished
   packet's I/O, reset the per-packet packet model and pipeline
   bookkeeping, and mint a fresh input port.  Extern state (registers,
   counters, meters), the environment, control-plane entries, coverage
   and concolic records all persist, as does the path condition on the
   explorer's spine — that continuity is what lets a warm-up packet
   unlock register-dependent paths in a later one.  [ctrl_taint] is sticky: taint that influenced
   control flow taints the rest of the sequence. *)
let next_packet ctx ~port_width st =
  let archived =
    {
      pd_chunks = st.chunks;
      pd_in_port = st.in_port;
      pd_outputs = st.outputs;
      pd_dropped = st.dropped;
    }
  in
  let left = st.seq_left - 1 in
  {
    st with
    work = [];
    chunks = [];
    live = empty_bits ctx.ectx;
    emit_buf = empty_bits ctx.ectx;
    sealed = false;
    in_port = fresh_var ctx "$in_port" port_width;
    outputs = [];
    dropped = false;
    state_visits = Env.empty;
    recircs = 0;
    phase = "";
    seq_left = left;
    seq_done = archived :: st.seq_done;
    trace = Printf.sprintf "-- packet boundary (%d more)" left :: st.trace;
  }

(* A run context over a prepared program.  [Oracle.instantiate] is the
   only caller: it composes the hooks from the target. *)
let make_ctx ~opts ~obs ~extern ~on_reject ~next_packet (prog : Ast.program) ~nstmts tctx =
  let parsers = Hashtbl.create 8 and controls = Hashtbl.create 8 in
  List.iter
    (function
      | Ast.DParser (pd, _) -> Hashtbl.replace parsers pd.p_name pd
      | Ast.DControl (cd, _) -> Hashtbl.replace controls cd.c_name cd
      | _ -> ())
    prog;
  {
    (* each run context owns a fresh term context: two runs can
       coexist and interleave, or run on different domains *)
    ectx = Expr.create_ctx ();
    obs;
    prog;
    tctx;
    parsers;
    controls;
    nstmts;
    opts;
    rng = Random.State.make [| opts.seed |];
    extern_hook = extern;
    reject_hook = on_reject;
    next_packet_hook = next_packet;
    uninit_is_zero = false;
    fresh_ctr = 0;
  }

(* parser reject as the targets' [on_reject] hooks use it: parsing
   stops; execution continues after the parser *)
let pop_to_reject err st =
  let rec go = function
    | [] -> []
    | WExitFrame (KParserFrame, _) :: _ as w -> w
    | _ :: rest -> go rest
  in
  { st with work = go st.work; trace = ("parser reject: " ^ err) :: st.trace }

let initial_state ctx ~port_width =
  {
    env = Env.empty;
    vartypes = Env.empty;
    work = [];
    chunks = [];
    live = empty_bits ctx.ectx;
    emit_buf = empty_bits ctx.ectx;
    sealed = false;
    in_port = Expr.var ctx.ectx "$in_port" port_width;
    entries = [];
    registers = [];
    counters = [];
    meters = [];
    reg_inits = [];
    tbl_misses = [];
    covered = IntSet.empty;
    concolic = [];
    outputs = [];
    dropped = false;
    state_visits = Env.empty;
    recircs = 0;
    phase = "";
    ctrl_taint = false;
    seq_left = max 0 (ctx.opts.seq_packets - 1);
    seq_done = [];
    trace = [];
  }

(* ------------------------------------------------------------------ *)
(* Branch helpers *)

let continue_ st = [ { br_cond = None; br_state = st; br_label = "" } ]

let note msg st = { st with trace = msg :: st.trace }

let cover pos st =
  if pos.Ast.line > 0 then { st with covered = IntSet.add pos.Ast.line st.covered }
  else st

(* ------------------------------------------------------------------ *)
(* Typed storage: leaf enumeration for a type *)

type leaf =
  | LfField of int  (** plain value leaf of the given width *)
  | LfValidity  (** header validity bit *)
  | LfStackNext  (** header-stack next-index counter (width 32) *)
  | LfVarbitLen  (** dynamic bit-length of a varbit field (width 32) *)

(* All storage leaves of a value of type [t] rooted at [path]. *)
let rec leaves ctx (t : Ast.typ) (path : string) : (string * leaf) list =
  match Typing.resolve ctx.tctx t with
  | TBit w | TInt w -> [ (path, LfField w) ]
  | TVarbit w ->
      (* varbit content is stored left-aligned in a max-width leaf with
         a companion length *)
      [ (path, LfField w); (path, LfVarbitLen) ]
  | TBool -> [ (path, LfField 1) ]
  | TError -> [ (path, LfField Typing.error_width) ]
  | TVoid -> []
  | TSpec _ -> []
  | TStack (h, n) ->
      let elem = List.concat (List.init n (fun i ->
          (Printf.sprintf "%s[%d]" path i, LfValidity)
          :: leaves_fields ctx h (Printf.sprintf "%s[%d]" path i)))
      in
      ((path, LfStackNext) :: elem)
  | TName n -> (
      match Typing.header_fields ctx.tctx n with
      | Some _ -> (path, LfValidity) :: leaves_fields ctx n path
      | None -> (
          match Typing.struct_fields ctx.tctx n with
          | Some fs ->
              List.concat_map (fun f -> leaves ctx f.Ast.f_typ (path ^ "." ^ f.Ast.f_name)) fs
          | None -> (
              match Typing.union_fields ctx.tctx n with
              | Some fs ->
                  (* unions: treat as struct of headers *)
                  List.concat_map
                    (fun f -> leaves ctx f.Ast.f_typ (path ^ "." ^ f.Ast.f_name))
                    fs
              | None -> (
                  match Hashtbl.find_opt ctx.tctx.Typing.enums n with
                  | Some _ -> [ (path, LfField Typing.enum_width) ]
                  | None -> fail "leaves: unknown type %s" n))))

and leaves_fields ctx hname path =
  match Typing.header_fields ctx.tctx hname with
  | Some fs ->
      List.concat_map (fun f -> leaves ctx f.Ast.f_typ (path ^ "." ^ f.Ast.f_name)) fs
  | None -> fail "leaves_fields: unknown header %s" hname

(* Fill every leaf of a value of type [t] at [path]: [init] chooses
   leaf contents (e.g. taint for uninitialized data, zero for targets
   that zero-initialize), headers get validity [valid], stack cursors
   and varbit lengths start at zero. *)
let fill ctx ?(valid = false) ~init (t : Ast.typ) path st =
  let env =
    List.fold_left
      (fun env (p, leaf) ->
        match leaf with
        | LfField w -> Env.add p (init p w) env
        | LfValidity -> Env.add (p ^ ".$valid") (Expr.of_bool ctx.ectx valid) env
        | LfStackNext -> Env.add (p ^ ".$next") (Expr.zero ctx.ectx 32) env
        | LfVarbitLen -> Env.add (p ^ ".$vblen") (Expr.zero ctx.ectx 32) env)
      st.env (leaves ctx t path)
  in
  { st with env }

(* Initialize storage for a fresh variable of type [t] (see {!fill}). *)
let declare ctx ?valid ~init (t : Ast.typ) path st =
  let st = fill ctx ?valid ~init t path st in
  { st with vartypes = Env.add path t st.vartypes }

let init_taint ctx _ w = Expr.fresh_taint ctx.ectx w
let init_zero ctx _ w = Expr.zero ctx.ectx w

(** target policy for uninitialized storage *)
let init_uninit ctx = if ctx.uninit_is_zero then init_zero ctx else init_taint ctx

(* copy all leaves under [src] prefix to [dst] prefix *)
let copy_tree ctx t ~src ~dst st =
  let env =
    List.fold_left
      (fun env (p, leaf) ->
        let key_suffix =
          match leaf with
          | LfField _ -> ""
          | LfValidity -> ".$valid"
          | LfStackNext -> ".$next"
          | LfVarbitLen -> ".$vblen"
        in
        let skey = p ^ key_suffix in
        let dkey =
          (* p starts with src *)
          dst ^ String.sub skey (String.length src) (String.length skey - String.length src)
        in
        match Env.find_opt skey env with
        | Some v -> Env.add dkey v env
        | None -> fail "copy_tree: missing %s" skey)
      st.env (leaves ctx t src)
  in
  { st with env }

let read_leaf st path =
  match Env.find_opt path st.env with
  | Some v -> v
  | None -> fail "read of undeclared location %s" path

let write_leaf path v st = { st with env = Env.add path v st.env }

(* ------------------------------------------------------------------ *)
(* Name resolution *)

(* Resolve a bare variable name against a frame's scope chain, then
   its by-reference parameters; returns the full env path and declared
   type. *)
let resolve_var st (fr : frame) name : (string * Ast.typ) option =
  let rec go = function
    | [] -> List.assoc_opt name fr.fr_params
    | scope :: rest -> (
        let key = scope ^ "." ^ name in
        match Env.find_opt key st.vartypes with
        | Some t -> Some (key, t)
        | None -> go rest)
  in
  go fr.fr_scopes

let find_action ctx (fr : frame) name : Ast.action_decl option =
  let local =
    match fr.fr_ctrl with
    | Some cd ->
        List.find_map
          (function
            | Ast.LAction a when a.act_name = name -> Some a
            | _ -> None)
          cd.c_locals
    | None -> None
  in
  match local with
  | Some a -> Some a
  | None -> Hashtbl.find_opt ctx.tctx.Typing.actions name

let find_table (fr : frame) name : Ast.table option =
  match fr.fr_ctrl with
  | Some cd ->
      List.find_map
        (function Ast.LTable t when t.tbl_name = name -> Some t | _ -> None)
        cd.c_locals
  | None -> None

(* ------------------------------------------------------------------ *)
(* Packet model (§5.2.1) *)

let input_width st = List.fold_left (fun acc c -> acc + Expr.width c) 0 st.chunks

let input_expr st =
  (* chunks are newest-first; the first chunk is the front of the wire
     packet, i.e. the most significant bits *)
  List.fold_left (fun acc c -> Expr.concat c acc) (empty_bits (state_ectx st)) st.chunks

let append_chunk ctx w st =
  let c = fresh_var ctx "$pkt" w in
  ({ st with chunks = c :: st.chunks; live = Expr.concat st.live c }, c)

type take_result =
  | TakeOk of state * Expr.t
  | TakeShort of state  (** the input ends before [w] bits are available *)

(* Take [w] bits from the front of the live packet, growing the
   required input if the live packet runs dry.  Returns every feasible
   outcome; the caller forks. *)
let take_bits ctx w st : take_result list =
  let lw = Expr.width st.live in
  if w <= lw then begin
    let bits = Expr.slice st.live ~hi:(lw - 1) ~lo:(lw - w) in
    let live =
      if w = lw then empty_bits ctx.ectx else Expr.slice st.live ~hi:(lw - w - 1) ~lo:0
    in
    [ TakeOk ({ st with live }, bits) ]
  end
  else begin
    let needed = w - lw in
    let ok =
      if st.sealed then None
      else begin
        match ctx.opts.fixed_packet_bytes with
        | Some bytes when input_width st + needed > bytes * 8 -> None
        | _ ->
            let st', _ = append_chunk ctx needed st in
            let lw' = Expr.width st'.live in
            let bits = Expr.slice st'.live ~hi:(lw' - 1) ~lo:(lw' - w) in
            let live =
              if w = lw' then empty_bits ctx.ectx
              else Expr.slice st'.live ~hi:(lw' - w - 1) ~lo:0
            in
            Some (TakeOk ({ st' with live }, bits))
      end
    in
    let short =
      (* with a fixed input size there is never a short packet *)
      match ctx.opts.fixed_packet_bytes with
      | Some _ -> None
      | None -> if st.sealed then Some (TakeShort st) else Some (TakeShort { st with sealed = true })
    in
    List.filter_map Fun.id [ ok; short ]
  end

(* Peek [w] bits without consuming (lookahead). *)
let peek_bits ctx w st : take_result list =
  List.map
    (function
      | TakeOk (st', bits) ->
          (* restore the consumed bits in front of the live packet *)
          TakeOk ({ st' with live = Expr.concat bits st'.live }, bits)
      | TakeShort st' -> TakeShort st')
    (take_bits ctx w st)

let prepend_live bits st = { st with live = Expr.concat bits st.live }

let emit_bits bits st = { st with emit_buf = Expr.concat st.emit_buf bits }

(* Deparser trigger point: prepend the emit buffer to the live packet. *)
let flush_emit st =
  { st with live = Expr.concat st.emit_buf st.live; emit_buf = empty_bits (state_ectx st) }

(* Pad the input with payload so the wire packet reaches [bytes]. *)
let pad_to_bytes ctx bytes st =
  let have = input_width st in
  if have >= bytes * 8 then st
  else begin
    let st', _ = append_chunk ctx ((bytes * 8) - have) st in
    st'
  end

let add_output ?(note = "") ~port ~data st =
  { st with outputs = { o_port = port; o_data = data; o_note = note } :: st.outputs }

(* ------------------------------------------------------------------ *)
(* Stateful extern state: registers, counters, meters.

   All three are assoc lists of cell arrays keyed by a stable name
   (the declaring block's type name plus the instance name), so the
   same instance resolves to the same cells on every pipeline
   invocation of a test sequence.  Updates are order-preserving
   in-place list rewrites: the assoc order depends only on declaration
   order, never on write order. *)

(* stable update: rewrite the one matching binding in place *)
let set_assoc name arr' tbl =
  List.map (fun ((n, _) as kv) -> if n = name then (n, arr') else kv) tbl

let find_register st name = List.assoc_opt name st.registers

(* create-if-absent: under stable keys a block entered repeatedly
   (recirculation, later sequence packets) keeps its existing cells *)
let add_register name ~size ~width st =
  if List.mem_assoc name st.registers then st
  else begin
    let arr = Array.init size (fun _ -> Expr.zero (state_ectx st) width) in
    { st with registers = (name, arr) :: st.registers }
  end

let read_register st name idx =
  match find_register st name with
  | Some arr when idx >= 0 && idx < Array.length arr -> Some arr.(idx)
  | _ -> None

let write_register st name idx v =
  match find_register st name with
  | Some arr ->
      let arr' = Array.copy arr in
      arr'.(idx) <- v;
      { st with registers = set_assoc name arr' st.registers }
  | None -> st

(* overwrite every cell with fresh taint: the effect of an update at a
   symbolic (unconcretized) index *)
let taint_all_cells st arr' =
  let ectx = state_ectx st in
  Array.map (fun c -> Expr.fresh_taint ectx (Expr.width c)) arr'

let taint_register st name =
  match find_register st name with
  | Some arr -> { st with registers = set_assoc name (taint_all_cells st arr) st.registers }
  | None -> st

let find_counter st name = List.assoc_opt name st.counters

let add_counter name ~size ~width st =
  if List.mem_assoc name st.counters then st
  else begin
    let arr = Array.init size (fun _ -> Expr.zero (state_ectx st) width) in
    { st with counters = (name, arr) :: st.counters }
  end

(* count(idx): bump the cell under a concrete index, taint the whole
   array under a symbolic one (the paper's taint abstraction for
   stateful externs whose value never reaches the output) *)
let bump_counter st name idx =
  match find_counter st name with
  | Some arr -> (
      match idx with
      | Some i when i >= 0 && i < Array.length arr ->
          let arr' = Array.copy arr in
          let ectx = state_ectx st in
          arr'.(i) <- Expr.add arr'.(i) (Expr.of_int ectx ~width:(Expr.width arr'.(i)) 1);
          { st with counters = set_assoc name arr' st.counters }
      | Some _ -> st
      | None -> { st with counters = set_assoc name (taint_all_cells st arr) st.counters })
  | None -> st

let find_meter st name = List.assoc_opt name st.meters

let add_meter name ~size ~width st =
  if List.mem_assoc name st.meters then st
  else begin
    let arr = Array.init size (fun _ -> Expr.zero (state_ectx st) width) in
    { st with meters = (name, arr) :: st.meters }
  end

(* executing a meter records a tainted color for the cell: meter state
   depends on timing the oracle cannot model (§5.3) *)
let execute_meter_state st name idx =
  match find_meter st name with
  | Some arr -> (
      let ectx = state_ectx st in
      match idx with
      | Some i when i >= 0 && i < Array.length arr ->
          let arr' = Array.copy arr in
          arr'.(i) <- Expr.fresh_taint ectx (Expr.width arr'.(i));
          { st with meters = set_assoc name arr' st.meters }
      | Some _ -> st
      | None -> { st with meters = set_assoc name (taint_all_cells st arr) st.meters })
  | None -> st

(* Resolve an extern instance name against a frame: the fresh
   per-invocation scopes first (local declarations), then the stable
   block-level keys (the declaring control's / parser's type name). *)
let find_extern_path find st (fr : frame) obj =
  let scopes =
    fr.fr_scopes
    @ (match fr.fr_ctrl with Some cd -> [ cd.Ast.c_name ] | None -> [])
    @ (match fr.fr_parser with Some pd -> [ pd.Ast.p_name ] | None -> [])
  in
  List.find_map
    (fun scope ->
      let k = scope ^ "." ^ obj in
      match find st k with Some _ -> Some k | None -> None)
    scopes

let find_register_path st fr obj = find_extern_path find_register st fr obj
let find_counter_path st fr obj = find_extern_path find_counter st fr obj
let find_meter_path st fr obj = find_extern_path find_meter st fr obj

(* ------------------------------------------------------------------ *)
(* Concolic call registration (§5.4) *)

let concolic_call ctx ~name ~impl ~width args st =
  let v = fresh_var ctx ("$concolic_" ^ name) width in
  let call = { cc_var = v; cc_name = name; cc_args = args; cc_impl = impl } in
  ({ st with concolic = call :: st.concolic }, v)

(* ------------------------------------------------------------------ *)
(* Work-stack helpers *)

let push_work ws st = { st with work = ws @ st.work }

let push_stmts fr stmts st = push_work (List.map (fun s -> WStmt (fr, s)) stmts) st

(* Drop work items up to and including the first matching exit frame
   (for [return] and [exit]). *)
let pop_to_exit kinds st =
  let rec go = function
    | [] -> []
    | WExitFrame (k, _) :: _ as w when List.mem k kinds -> w
    | _ :: rest -> go rest
  in
  { st with work = go st.work }
