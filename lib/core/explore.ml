(* Path exploration and test emission.

   Default strategy is depth-first search to exhaustion with eager
   pruning of unsatisfiable branches, using the solver incrementally
   (scopes pushed and popped along the DFS spine), exactly as the
   paper configures Z3 (§6).  Alternative strategies enabled by the
   continuation design (§5.1.2): random branch ordering, and a
   coverage mode that walks in DFS order but builds and keeps only the
   paths that add statement coverage, stopping once every statement is
   covered.

   Two drivers share the same DFS engine:

   - [path_jobs = 0] (default): the classic in-place sequential DFS
     over the caller's context and solver.

   - [path_jobs >= 1]: the frontier-split driver.  An *adaptive*
     sequential splitter grows a task frontier by repeatedly
     refining the heaviest task (by remaining-work estimate) one
     fork level deeper until the frontier reaches the
     [split_tasks] target.  Each task carries the captured subtree
     root state — refinement continues from captured states, never
     re-executing a prefix — plus the branch-choice prefix that
     reaches it and the path conditions accumulated along the way.

     Every task starts from a *snapshot*: the task's state is
     imported into a private [Expr.clone_ctx] term context
     (tag/vid-preserving, so pre-fork hash-consed terms are reused
     rather than re-interned) and the splitter's solver is
     [Solver.clone]d — clause database, learnt clauses, phase state,
     and blaster caches included — then the task's path conditions
     are asserted as the clone's base.

     The splitter runs to completion before any worker starts, and
     every task clones from the same frozen splitter-final
     context/solver, so a task's result is a pure function of the
     task — independent of scheduling.  Results merge in splitter
     (DFS) order, so the test set, coverage, and counter totals are
     identical for [path_jobs = 1] and [path_jobs = N] (the lone
     exception is [explore.steals], which is scheduling by
     definition). *)

module Bits = Bitv.Bits
module Expr = Smt.Expr
module Solver = Smt.Solver
open Runtime

type strategy = Dfs | Rnd | Cov

type config = {
  max_tests : int option;
  max_paths : int option;
  strategy : strategy;
  path_jobs : int;
      (** 0 = classic sequential DFS; N >= 1 = frontier-split driver
          with N worker domains (capped by the shared domain pool and
          by the host's recommended domain count) *)
  qcache_store : Smt.Qcache.store option;
      (** cross-run digest-set store (the serve daemon passes the
          prepared oracle's store so cache facts survive between
          requests for the same fingerprint) *)
  on_test : (Testspec.t -> unit) option;
      (** incremental test callback: invoked once per *accepted* test,
          in final emission order, as paths close — before the run
          finishes.  Sequential driver: fired directly from the DFS.
          Frontier driver: fired as the deterministic merge prefix
          advances over completed subtree tasks, so the stream order
          equals [result.tests] for every [path_jobs] (the callback
          runs under the merge lock there: a slow consumer throttles
          the workers — that is the backpressure story).  Exceptions
          from the callback abort the run. *)
  deadline : float option;
      (** absolute {!Obs.Clock.now} time after which exploration stops
          gracefully (checked before every symbolic step and between
          splitter refinements): tests emitted so far are kept.  A run
          cut by its deadline is time-dependent, so determinism
          guarantees only hold for runs that finish before it. *)
  (* The three fields below are test-only: the CLI, the daemon and
     the benchmarks always run with their defaults. *)
  rebuild_size_threshold : int;
      (** SAT variables a solver may accumulate before it is eligible
          for a rebuild (it is rebuilt once it has also doubled since
          its last rebuild, see [maybe_rebuild]); tests shrink it to
          force rebuilds *)
  split_tasks : int;
      (** adaptive-splitter frontier target: the splitter refines the
          heaviest task one fork level deeper until this many subtree
          tasks exist (frontier driver only; <= 1 disables splitting
          and runs the whole tree as one task); tests shrink it to
          force small frontiers *)
  query_cache : bool;
      (** consult the {!Smt.Qcache} independence-slicing cache before
          paying for a branch-feasibility solver check.  Cache
          verdicts agree with the solver, so the explored tree and
          the emitted tests are identical either way — only the cost
          changes.  Test-emission models always come from real solver
          calls on the emission solver, whose history is independent
          of this flag; [false] is the bit-identity reference of the
          qcache tests. *)
}

let default_config =
  {
    max_tests = None;
    max_paths = None;
    strategy = Dfs;
    path_jobs = 0;
    qcache_store = None;
    on_test = None;
    deadline = None;
    rebuild_size_threshold = 4000;
    split_tasks = 32;
    query_cache = true;
  }

(* A read-out of the run's metrics.  The source of truth is the
   [Obs] registry threaded through [Runtime.ctx]; this record is a
   façade computed from a registry snapshot so existing consumers
   (CLI summary lines, the bench tables) keep working. *)
type stats = {
  mutable paths : int;  (** completed feasible paths *)
  mutable tests : int;
  mutable infeasible : int;  (** branches pruned by the solver *)
  mutable abandoned : int;  (** paths cut by unrolling/recirc bounds *)
  mutable discarded_taint : int;  (** tests dropped for tainted ports *)
  mutable discarded_concolic : int;
  mutable discarded_cov : int;  (** Cov paths dropped for adding no coverage *)
  mutable discarded_budget : int;
      (** paths dropped because a test-construction solve hit the SAT
          core's conflict budget *)
  mutable t_step : float;  (** interpretation time *)
  mutable t_emit : float;  (** test-construction time (includes its solver calls) *)
  mutable t_emit_solve : float;  (** solver time spent inside test construction *)
  mutable solver_checks : int;
      (** all solver checks of the run — branch feasibility plus the
          ones issued during test construction *)
}

type result = {
  tests : Testspec.t list;
  covered : IntSet.t;
  total_stmts : int;
  stats : stats;
  solve_time : float;
  total_time : float;
  obs : Obs.Snapshot.t;
      (** the run's registry delta, including absorbed per-task and
          per-worker activity under the frontier driver *)
  workers : (string * Obs.Registry.t) list;
      (** frontier driver only: per-worker registries (spans, steal
          counts) for trace export; empty for the sequential driver *)
}

(* the façade: project a (delta) snapshot of the run's registry onto
   the historical stats record *)
let stats_of_snapshot (d : Obs.Snapshot.t) : stats =
  let i = Obs.Snapshot.get_int d and f = Obs.Snapshot.get_float d in
  {
    paths = i "explore.paths";
    tests = i "explore.tests";
    infeasible = i "explore.infeasible";
    abandoned = i "explore.abandoned";
    discarded_taint = i "explore.discarded_taint";
    discarded_concolic = i "explore.discarded_concolic";
    discarded_cov = i "explore.discarded_cov";
    discarded_budget = i "explore.discarded_budget";
    t_step = f "explore.t_step";
    t_emit = f "explore.t_emit";
    t_emit_solve = f "explore.t_emit_solve";
    solver_checks = i "solver.checks";
  }

(* ------------------------------------------------------------------ *)
(* Coverage export hook (corpus admission, ROADMAP item 3).

   Projects a finished run onto a set of *cross-program* coverage
   keys: one key per covered canonical statement shape ([shape] maps
   this program's statement ids to canonical shape hashes, see
   {!P4.Passes.statement_shapes}).  Branch coverage is subsumed:
   a shape embeds its full branch context ("/if(cond).t" vs ".e"), so
   covering a new if-arm is a new key.  Deliberately NOT per-test
   path digests: those are near-unique per generated program (every
   from-scratch program mints fresh keys forever), which would mask
   grammar saturation and make the corpus-vs-random comparison
   meaningless.  Shape keys saturate under the generator's bounded
   grammar, so sustained novelty measures reaching oracle code the
   generator alone cannot.  Derived only from [result.covered], which
   is bit-identical across [path_jobs] and cache settings, so the key
   set is too. *)

let coverage_keys ~(shape : int -> int) (r : result) : IntSet.t =
  IntSet.fold
    (fun sid acc -> IntSet.add (shape sid) acc)
    r.covered IntSet.empty

let coverage_pct r =
  if r.total_stmts = 0 then 100.0
  else 100.0 *. float_of_int (IntSet.cardinal r.covered) /. float_of_int r.total_stmts

exception Stop

(* ------------------------------------------------------------------ *)
(* Domain pool

   One process-wide token budget shared by every parallelism layer
   (batch jobs × path workers), so [--jobs 4 --path-jobs 4] spawns at
   most the pool's worth of extra domains rather than 16.  [acquire]
   never blocks: it grants what is available (possibly 0) and the
   caller runs the remainder on its own domain. *)
module Pool = struct
  (* allow oversubscription up to 8-way even on small hosts so the
     frontier driver exercises real concurrency everywhere *)
  let tokens = Atomic.make (max 7 (Domain.recommended_domain_count () - 1))

  let rec acquire n =
    if n <= 0 then 0
    else
      let avail = Atomic.get tokens in
      let take = min n avail in
      if take = 0 then 0
      else if Atomic.compare_and_set tokens avail (avail - take) then take
      else acquire n

  let release n = if n > 0 then ignore (Atomic.fetch_and_add tokens n)

  (* [run n work] runs up to [n] workers: the calling domain plus one
     spawned domain per token granted.  [work nw] is applied once, with
     the worker count [nw], and yields the body each worker [w < nw]
     runs (worker 0 on the calling domain).  Whatever any worker
     raises, every spawned domain is joined and the tokens are returned
     before the first exception is re-raised. *)
  let run n (work : int -> int -> unit) =
    let extra = acquire (n - 1) in
    let domains = ref [] in
    let outcome f = match f () with () -> None | exception e -> Some e in
    let main =
      outcome (fun () ->
          let body = work (extra + 1) in
          for w = 1 to extra do
            domains := Domain.spawn (fun () -> body w) :: !domains
          done;
          body 0)
    in
    let errors =
      List.filter_map Fun.id
        (main :: List.rev_map (fun d -> outcome (fun () -> Domain.join d)) !domains)
    in
    release extra;
    match errors with e :: _ -> raise e | [] -> ()

  (* [iter n count f] calls [f w i] once for every [i < count] on up to
     [n] workers, each pulling the next index from a shared cursor;
     [w] is the calling worker's index *)
  let iter n count f =
    let next = Atomic.make 0 in
    run (min n count) (fun _ w ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < count then begin
            f w i;
            loop ()
          end
        in
        loop ())
end

(* ------------------------------------------------------------------ *)
(* Test construction *)

let concretize_key model (name, sk) =
  let km =
    match sk with
    | SkExact e -> Testspec.MExact (model e)
    | SkTernary (v, m) -> Testspec.MTernary (model v, model m)
    | SkLpm (v, l) -> Testspec.MLpm (model v, l)
    | SkRange (a, b) -> Testspec.MRange (model a, model b)
    | SkOptional (Some v) -> Testspec.MOptional (Some (model v))
    | SkOptional None -> Testspec.MOptional None
  in
  (name, km)

let concretize_entry model (se : sym_entry) : Testspec.entry =
  {
    e_table = se.se_table;
    e_keys = List.map (concretize_key model) se.se_keys;
    e_action = se.se_action;
    e_args = List.map (fun (n, e) -> (n, model e)) se.se_args;
    e_priority = se.se_priority;
  }

(* soft randomization of free test inputs — in-port, synthesized
   action arguments, and packet payload (the paper picks the output
   port "at random", §3).  Implemented as SAT phase suggestions, which
   cost no clauses: all-zero packets would hide data-dependent bugs
   (e.g. shifts of zero). *)
let randomize_free_inputs ctx solver st =
  if ctx.opts.randomize then begin
    let pref e =
      match e.Expr.node with
      | Expr.Var _ -> Solver.suggest solver e (Bits.random ctx.rng (Expr.width e))
      | _ -> ()
    in
    pref st.in_port;
    List.iter (fun se -> List.iter (fun (_, e) -> pref e) se.se_args) st.entries;
    List.iter pref st.chunks;
    List.iter
      (fun pd ->
        pref pd.pd_in_port;
        List.iter pref pd.pd_chunks)
      st.seq_done
  end

(* last-write-wins per (name, index): [reg_inits] arrives newest first,
   so keeping each cell's first occurrence and reversing yields the
   final value of every cell in oldest-first order — PTF output never
   emits conflicting register_write lines for the same cell *)
let dedup_reg_inits (ris : Testspec.register_init list) =
  let seen = Hashtbl.create 8 in
  let keep =
    List.filter
      (fun (r : Testspec.register_init) ->
        let k = (r.r_name, r.r_index) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      ris
  in
  List.rev keep

let build_test ctx solver (st : state) : Testspec.t option =
  randomize_free_inputs ctx solver st;
  match Concolic.resolve solver st with
  | Concolic.Infeasible -> None
  | Concolic.Resolved model ->
      let taint_of e =
        let m = Expr.taint_mask e in
        if st.ctrl_taint then Bits.ones (Bits.width m) else m
      in
      (* one injection step per packet of the sequence: the archived
         ones plus the packet still live in [st] *)
      let inject (pd : pkt_record) =
        let data =
          List.fold_left
            (fun acc c -> Expr.concat c acc)
            (empty_bits ctx.ectx) pd.pd_chunks
        in
        let input = Testspec.packet ~port:(model pd.pd_in_port) (model data) in
        let outputs =
          if pd.pd_dropped then []
          else
            List.rev_map
              (fun o ->
                {
                  Testspec.port = model o.o_port;
                  data = model o.o_data;
                  dontcare = taint_of o.o_data;
                })
              pd.pd_outputs
        in
        Testspec.SInject { input; outputs }
      in
      let current =
        {
          pd_chunks = st.chunks;
          pd_in_port = st.in_port;
          pd_outputs = st.outputs;
          pd_dropped = st.dropped;
        }
      in
      let entries = List.rev_map (concretize_entry model) st.entries in
      let registers = dedup_reg_inits st.reg_inits in
      let covered = IntSet.elements st.covered in
      let comment = String.concat " > " (List.rev st.trace) in
      (* [current :: seq_done] is newest first; rev_map restores
         injection order *)
      (match List.rev_map inject (current :: st.seq_done) with
      | [ Testspec.SInject { input; outputs } ] ->
          Some (Testspec.make ~input ~outputs ~entries ~registers ~covered ~comment)
      | steps -> Some (Testspec.make_seq ~steps ~entries ~registers ~covered ~comment))

(* a test is flaky if any packet's fate or destination is tainted *)
let port_tainted st =
  st.ctrl_taint
  || List.exists (fun o -> Expr.tainted o.o_port) st.outputs
  || List.exists
       (fun pd -> List.exists (fun o -> Expr.tainted o.o_port) pd.pd_outputs)
       st.seq_done

(* Sequence boundary: a completed packet with injections left starts
   the next one (the target-installed hook archives the finished
   packet and re-initialises the pipeline over the persisting extern
   state).  This is an implicit step — it consumes no fork choice — so
   branch-choice prefixes are unaffected by packet boundaries. *)
let seq_boundary (ctx : ctx) (st : state) : state option =
  if st.seq_left > 0 then Some (ctx.next_packet_hook ctx st) else None

(* ------------------------------------------------------------------ *)
(* DFS engine

   The engine is the state of one depth-first walk: a context, a
   solver (rebuilt when it accumulates dead variables), the spine of
   active assertions, and the accumulated tests.  The sequential
   driver runs one engine over the whole tree; the frontier driver
   runs one per task, seeded with the task's imported prefix
   conditions as [e_base]. *)

type cells = {
  c_paths : Obs.Counter.t;
  c_tests : Obs.Counter.t;
  c_infeasible : Obs.Counter.t;
  c_abandoned : Obs.Counter.t;
  c_disc_taint : Obs.Counter.t;
  c_disc_concolic : Obs.Counter.t;
  c_disc_cov : Obs.Counter.t;
  c_disc_budget : Obs.Counter.t;
  c_branch_checks : Obs.Counter.t;
  c_budget_cut : Obs.Counter.t;
  c_seq_paths : Obs.Counter.t;
  c_rebuilds : Obs.Counter.t;
  tm_step : Obs.Timer.t;
  tm_emit : Obs.Timer.t;
  tm_emit_solve : Obs.Timer.t;
  tm_branch : Obs.Timer.t;
  tm_rebuild : Obs.Timer.t;
  tm_solve : Obs.Timer.t;
}

let make_cells reg =
  {
    c_paths = Obs.Registry.counter reg "explore.paths";
    c_tests = Obs.Registry.counter reg "explore.tests";
    c_infeasible = Obs.Registry.counter reg "explore.infeasible";
    c_abandoned = Obs.Registry.counter reg "explore.abandoned";
    c_disc_taint = Obs.Registry.counter reg "explore.discarded_taint";
    c_disc_concolic = Obs.Registry.counter reg "explore.discarded_concolic";
    c_disc_cov = Obs.Registry.counter reg "explore.discarded_cov";
    c_disc_budget = Obs.Registry.counter reg "explore.discarded_budget";
    c_branch_checks = Obs.Registry.counter reg "explore.branch_checks";
    c_budget_cut = Obs.Registry.counter reg "explore.budget_cut";
    c_seq_paths = Obs.Registry.counter reg "explore.sequence_paths";
    c_rebuilds = Obs.Registry.counter reg "solver.rebuilds";
    tm_step = Obs.Registry.timer reg "explore.t_step";
    tm_emit = Obs.Registry.timer reg "explore.t_emit";
    tm_emit_solve = Obs.Registry.timer reg "explore.t_emit_solve";
    tm_branch = Obs.Registry.timer reg "explore.t_branch";
    tm_rebuild = Obs.Registry.timer reg "explore.t_rebuild";
    (* solver time lives in the registry and therefore accumulates
       across solver rebuilds (every solver of a run shares it) *)
    tm_solve = Obs.Registry.timer reg "solver.time";
  }

type engine = {
  e_ctx : ctx;
  e_cfg : config;
  e_cells : cells;
  e_solver : Solver.t ref;
      (* the *emission* solver: it carries only conditions of paths
         actually descended into (base + feasible spine conds) and
         answers every test-construction query.  Its assertion and
         check history is a pure function of the explored tree — in
         particular independent of the query cache — which is what
         keeps emitted tests bit-identical with the cache on or off. *)
  e_probe : Solver.t ref;
      (* the *probe* solver: carries the full candidate path
         (including the condition under test) and answers the branch
         feasibility checks the query cache cannot *)
  e_solver_live : int ref;
  e_probe_live : int ref;
      (* each solver's size right after its last rebuild (0 before the
         first): its live part, base plus spine, at that point *)
  e_qc : Smt.Qcache.t option;
      (* branch-feasibility query cache; [None] when
         [config.query_cache] is off *)
  e_spine : Expr.t list ref;
      (* the DFS spine's active assertions, innermost first, mirroring
         the solver's scope stack; lets us rebuild a fresh solver when
         the old one has accumulated too many dead variables *)
  e_base : Expr.t list;
      (* base-scope assertions (the task's prefix conditions),
         re-asserted into every rebuilt solver before the spine *)
  mutable e_tests : Testspec.t list;  (* newest first *)
  mutable e_covered : IntSet.t;
  mutable e_emitted : int;
  e_paths0 : int;
  e_count_tests : bool;
      (* frontier workers defer the [explore.tests] counter to the
         merge, where the accepted count is scheduling independent *)
  e_extra_check : unit -> unit;  (* frontier: global-cut abort hook *)
}

let new_solver (ctx : ctx) base =
  let s = Solver.create ~obs:ctx.obs ctx.ectx in
  List.iter (Solver.assert_ s) base;
  s

(* [solver]/[probe], when given, must already carry [base] (the
   warm-handoff path asserts imported conditions into cloned solvers
   before building the engine); rebuilds re-assert [base] into a cold
   solver either way.  [qc], when given, is a task clone with empty
   active state — [base] is asserted into it here either way. *)
let make_engine ?(base = []) ?solver ?probe ?qc ?(count_tests = true)
    ?(extra_check = fun () -> ()) (ctx : ctx) (cfg : config) =
  let cells = make_cells ctx.obs in
  let e_qc =
    if not cfg.query_cache then None
    else begin
      let q =
        match qc with
        | Some q -> q
        | None ->
            Smt.Qcache.create ~obs:ctx.obs ?store:cfg.qcache_store ()
      in
      List.iter (Smt.Qcache.assert_base q) base;
      Some q
    end
  in
  {
    e_ctx = ctx;
    e_cfg = cfg;
    e_cells = cells;
    e_solver =
      ref (match solver with Some s -> s | None -> new_solver ctx base);
    e_probe =
      ref (match probe with Some s -> s | None -> new_solver ctx base);
    e_solver_live = ref 0;
    e_probe_live = ref 0;
    e_qc;
    e_spine = ref [];
    e_base = base;
    e_tests = [];
    e_covered = IntSet.empty;
    e_emitted = 0;
    e_paths0 = Obs.Counter.value cells.c_paths;
    e_count_tests = count_tests;
    e_extra_check = extra_check;
  }

(* A solver is rebuilt once it has outgrown both
   [rebuild_size_threshold] and twice its live size after its last
   rebuild: past that point the dead variables of popped scopes
   outnumber the live ones, whatever the spine's depth.  The factor 2
   keeps a solver whose live part alone passes the threshold (a deep
   spine) from rebuilding on every pop.  Both solvers' scope stacks
   mirror the spine whenever this runs, but each rebuilds on its own
   size: the probe blasts every candidate branch and outgrows the
   emission solver. *)
let maybe_rebuild eng =
  let rebuild_one sref live =
    let size = Solver.size !sref in
    if size > eng.e_cfg.rebuild_size_threshold && size > 2 * !live then begin
      (* retire the old solver: push its residual counter activity
         into the registry before it becomes unreachable *)
      Solver.flush_stats !sref;
      Obs.Counter.incr eng.e_cells.c_rebuilds;
      let s = new_solver eng.e_ctx eng.e_base in
      List.iter
        (fun c ->
          Solver.push s;
          Solver.assert_ s c)
        (List.rev !(eng.e_spine));
      sref := s;
      live := Solver.size s
    end
  in
  rebuild_one eng.e_solver eng.e_solver_live;
  rebuild_one eng.e_probe eng.e_probe_live

let check_budget eng =
  (match eng.e_cfg.max_tests with
  | Some n when eng.e_emitted >= n -> raise Stop
  | _ -> ());
  (match eng.e_cfg.max_paths with
  | Some n when Obs.Counter.value eng.e_cells.c_paths - eng.e_paths0 >= n ->
      raise Stop
  | _ -> ());
  eng.e_extra_check ()

let past_deadline (cfg : config) =
  match cfg.deadline with Some d -> Obs.Clock.now () > d | None -> false

(* Under Cov a path is kept only if it adds statement coverage, so the
   novelty check runs before the test is built: a dropped path costs no
   randomisation, concolic solve or model evaluation.  [e_covered] is
   this engine's own coverage (a frontier task's, never the merge
   prefix's, which depends on scheduling); the merge re-filters against
   the global union.  Once every statement is covered no later path can
   be kept, so the walk stops. *)
let finish eng st =
  let reg = eng.e_ctx.obs in
  Obs.Counter.incr eng.e_cells.c_paths;
  if st.seq_done <> [] then Obs.Counter.incr eng.e_cells.c_seq_paths;
  let cov = eng.e_cfg.strategy = Cov in
  let full = ref false in
  Obs.Span.with_ reg
    ~args:
      [
        ( "path",
          string_of_int (Obs.Counter.value eng.e_cells.c_paths - eng.e_paths0)
        );
      ]
    "path"
    (fun () ->
      let t0 = Obs.Clock.now () in
      let solve0 = Obs.Timer.value eng.e_cells.tm_solve in
      (if port_tainted st then Obs.Counter.incr eng.e_cells.c_disc_taint
       else if cov && IntSet.subset st.covered eng.e_covered then
         Obs.Counter.incr eng.e_cells.c_disc_cov
       else
         match build_test eng.e_ctx !(eng.e_solver) st with
         | exception Smt.Sat.Budget_exhausted ->
             Obs.Counter.incr eng.e_cells.c_disc_budget
         | None -> Obs.Counter.incr eng.e_cells.c_disc_concolic
         | Some t ->
             (* the emission model satisfies the whole path — a
                high-coverage witness for future slice queries *)
             (match eng.e_qc with
             | Some q ->
                 Smt.Qcache.note_model q (Solver.capture_model !(eng.e_solver))
             | None -> ());
             eng.e_covered <- IntSet.union st.covered eng.e_covered;
             full := cov && IntSet.cardinal eng.e_covered >= eng.e_ctx.nstmts;
             if eng.e_count_tests then Obs.Counter.incr eng.e_cells.c_tests;
             eng.e_emitted <- eng.e_emitted + 1;
             eng.e_tests <- t :: eng.e_tests;
             (* stream accepted tests as paths close — only when this
                engine's tests are final (the sequential driver).  A
                frontier worker's tests pass through the deterministic
                merge first; the merge streams them instead. *)
             if eng.e_count_tests then
               match eng.e_cfg.on_test with Some f -> f t | None -> ());
      Obs.Timer.add eng.e_cells.tm_emit (Obs.Clock.now () -. t0);
      Obs.Timer.add eng.e_cells.tm_emit_solve
        (Obs.Timer.value eng.e_cells.tm_solve -. solve0));
  if !full then raise Stop;
  check_budget eng

(* a branch-feasibility check on the probe: [None] when the SAT core's
   conflict budget cut it.  A cut branch is not entered, and its
   verdict is unknown, not infeasible: nothing is cached for it. *)
let probe_check eng =
  Obs.Counter.incr eng.e_cells.c_branch_checks;
  match Solver.check !(eng.e_probe) with
  | r -> Some (r = Solver.Sat)
  | exception Smt.Sat.Budget_exhausted ->
      Obs.Counter.incr eng.e_cells.c_budget_cut;
      None

(* branch ordering, tagged with each branch's original index so a
   task's prefix names choices independently of the order.  Rnd keys
   are 63-bit so key collisions (which would leave tie order to
   List.sort internals rather than the seed) are out of the picture
   even on wide branch lists. *)
let order eng branches =
  let idx = List.mapi (fun i b -> (i, b)) branches in
  match eng.e_cfg.strategy with
  | Rnd ->
      List.map snd
        (List.sort
           (fun (ka, _) (kb, _) -> Int64.compare ka kb)
           (List.map
              (fun ib -> (Random.State.int64 eng.e_ctx.rng Int64.max_int, ib))
              idx))
  | Dfs | Cov -> idx

(* the DFS proper.  [depth] counts fork choices (forks = >= 2 sibling
   branches; single conditional branches are followed implicitly and
   consume no choice), [pref] is the reversed choice list from the
   root.  With [split = Some (limit, emit)] the walk is the frontier
   splitter: it emits (prefix, at_leaf, state) instead of descending
   past [limit] fork choices, and emits completed shallow paths as
   single-path tasks instead of building their tests — so the merge
   alone decides test and path accounting.  The deadline is checked
   before every step, so no branch — feasible, pruned or abandoned —
   runs past it. *)
let rec dfs eng ~split depth pref st =
  if past_deadline eng.e_cfg then raise Stop;
  let t0 = Obs.Clock.now () in
  let stepped =
    try Step.step eng.e_ctx st
    with Exec_error msg ->
      (* an unsupported construct on this path: abandon the path but
         keep exploring the rest of the program *)
      Logs.warn (fun m -> m "path abandoned: %s" msg);
      Some []
  in
  Obs.Timer.add eng.e_cells.tm_step (Obs.Clock.now () -. t0);
  match stepped with
  | None -> (
      (* packet finished: cross the sequence boundary when injections
         remain, otherwise the path is complete *)
      match seq_boundary eng.e_ctx st with
      | Some st' -> dfs eng ~split depth pref st'
      | None -> (
          match split with
          | Some (_, emit) -> emit (List.rev pref) true st
          | None -> finish eng st))
  | Some [] -> Obs.Counter.incr eng.e_cells.c_abandoned
  | Some [ { br_cond = None; br_state; _ } ] -> dfs eng ~split depth pref br_state
  | Some branches ->
      let fork = List.length branches >= 2 in
      let enter i child =
        let depth', pref' =
          if fork then (depth + 1, i :: pref) else (depth, pref)
        in
        match split with
        | Some (limit, emit) when fork && depth' >= limit ->
            emit (List.rev pref') false child
        | _ -> dfs eng ~split depth' pref' child
      in
      List.iter
        (fun (i, b) ->
          match b.br_cond with
          | None -> enter i b.br_state
          | Some c when Expr.is_true c -> enter i b.br_state
          | Some c when Expr.is_false c ->
              Obs.Counter.incr eng.e_cells.c_infeasible
          | Some c ->
              (* [t_branch] times the feasibility verdict and the scope
                 pushes and pops on both solvers, never the subtree *)
              let tm = eng.e_cells.tm_branch in
              let t0 = Obs.Clock.now () in
              (* the probe carries the full candidate path (the query
                 cache consults slices of the path *without* [c], so it
                 runs before the cache's own push) *)
              Solver.push !(eng.e_probe);
              Solver.assert_ !(eng.e_probe) c;
              eng.e_spine := c :: !(eng.e_spine);
              let feasible =
                match eng.e_qc with
                | Some q -> (
                    match Smt.Qcache.check q c with
                    | Smt.Qcache.Sat_hit -> Some true
                    | Smt.Qcache.Unsat_hit -> Some false
                    | Smt.Qcache.Unknown ->
                        let r = probe_check eng in
                        (match r with
                        | Some true ->
                            Smt.Qcache.note_sat q
                              (Solver.capture_model !(eng.e_probe))
                        | Some false -> Smt.Qcache.note_unsat q
                        | None -> ());
                        r)
                | None ->
                    (* model reuse without the cache: if the probe's
                       last model already satisfies the branch
                       condition it witnesses the child's feasibility
                       (every condition entered since that model was
                       produced passed this same test, so the model
                       still satisfies the whole path) *)
                    if Solver.holds !(eng.e_probe) c then Some true
                    else probe_check eng
              in
              (try
                 if feasible = Some true then begin
                   (* only feasible conditions reach the emission
                      solver, so its history never depends on how a
                      feasibility verdict was obtained *)
                   Solver.push !(eng.e_solver);
                   Solver.assert_ !(eng.e_solver) c;
                   (match eng.e_qc with
                   | Some q -> Smt.Qcache.push q c
                   | None -> ());
                   Obs.Timer.add tm (Obs.Clock.now () -. t0);
                   Fun.protect
                     ~finally:(fun () ->
                       let t1 = Obs.Clock.now () in
                       (match eng.e_qc with
                       | Some q -> Smt.Qcache.pop q
                       | None -> ());
                       Solver.pop !(eng.e_solver);
                       Obs.Timer.add tm (Obs.Clock.now () -. t1))
                     (fun () -> enter i (add_cond c b.br_state))
                 end
                 else begin
                   Obs.Timer.add tm (Obs.Clock.now () -. t0);
                   if feasible = Some false then
                     Obs.Counter.incr eng.e_cells.c_infeasible
                 end
               with e ->
                 (* keep spine and scope stack consistent on any exit
                    (Stop, frontier abort): pop both, not just the
                    solver scope *)
                 Solver.pop !(eng.e_probe);
                 eng.e_spine := List.tl !(eng.e_spine);
                 raise e);
              let t1 = Obs.Clock.now () in
              Solver.pop !(eng.e_probe);
              eng.e_spine := List.tl !(eng.e_spine);
              let t2 = Obs.Clock.now () in
              Obs.Timer.add tm (t2 -. t1);
              maybe_rebuild eng;
              Obs.Timer.add eng.e_cells.tm_rebuild (Obs.Clock.now () -. t2))
        (order eng branches)

(* ------------------------------------------------------------------ *)
(* Sequential driver (path_jobs = 0)

   Each driver returns its tests (in final order), coverage and
   per-worker registries; [run] does the bookkeeping they share. *)

let run_seq (config : config) (ctx : ctx) (st0 : state) =
  let eng = make_engine ctx config in
  (try dfs eng ~split:None 0 [] st0 with Stop -> ());
  Solver.flush_stats !(eng.e_solver);
  Solver.flush_stats !(eng.e_probe);
  (match eng.e_qc with Some q -> Smt.Qcache.publish q | None -> ());
  (List.rev eng.e_tests, eng.e_covered, [])

(* ------------------------------------------------------------------ *)
(* Frontier driver (path_jobs >= 1) *)

exception Abort
(* raised inside a worker task when the global cut has passed it *)

let prefix_to_string p = String.concat "." (List.map string_of_int p)

type task_result = {
  tr_tests : Testspec.t list;  (* in subtree DFS order *)
  tr_paths : int;
  tr_snap : Obs.Snapshot.t;  (* the task's whole private registry *)
}

type slot = Pending | Done of task_result | Dropped

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* path conditions a state accumulated since a root that carried [n0]
   conditions, oldest first — the base a task's solver must assert *)
let conds_since n0 st =
  List.rev (take (List.length st.path_cond - n0) st.path_cond)

(* replays the sequential emission filter over a task's tests: in Cov
   mode a test survives only if it adds coverage over everything
   accepted before it (the worker's local filter can only have dropped
   tests subsumed by earlier tests of the same task, so re-filtering
   against the global union is exact).  At most [room] tests are kept,
   and the returned coverage union stops at the last kept one: how far
   the boundary task ran past the cut depends on scheduling, so its
   later tests must not reach [result.covered]. *)
let accept_tests strategy ~room cov tests =
  let rec go cov room kept = function
    | t :: rest when room > 0 ->
        let tc = IntSet.of_list t.Testspec.covered in
        if strategy = Cov && IntSet.subset tc cov then go cov room kept rest
        else go (IntSet.union tc cov) (room - 1) (t :: kept) rest
    | _ -> (List.rev kept, cov)
  in
  go cov room [] tests

(* one step of the deterministic merge: the tests task [r] contributes
   given the totals accumulated so far.  Shared verbatim by the
   early-abort prefix scan and the final merge so the cut point cannot
   diverge between them. *)
let merge_accept config ~cov ~ntests (r : task_result) =
  let room =
    match config.max_tests with Some m -> m - ntests | None -> max_int
  in
  accept_tests config.strategy ~room cov r.tr_tests

let budget_reached config ~ntests ~npaths =
  (match config.max_tests with Some m -> ntests >= m | None -> false)
  || (match config.max_paths with Some m -> npaths >= m | None -> false)

(* ------------------------------------------------------------------ *)
(* Adaptive splitter

   Grows the task frontier by refinement: start from the whole tree as
   one task, then repeatedly take the heaviest non-completed task and
   run the DFS engine from its captured root to the next fork,
   replacing it in place (preserving DFS merge order) with the fork's
   feasible children.  Refinement continues from captured states — a
   prefix is never re-executed — and stops when the frontier reaches
   the target width, every task is a completed path, the refinement
   depth bound is hit, or the deadline passes.  The target is a pure
   function of the config, never of [path_jobs] or the host, so the
   split — and with it every downstream count — is identical for
   every worker count. *)

type stask = {
  sk_prefix : int list;  (** branch choices from [st0], oldest first *)
  sk_state : state;  (** captured subtree root (splitter's term ctx) *)
  sk_leaf : bool;  (** a completed path: nothing to explore below *)
  sk_cost : int;  (** remaining-work estimate (continuation depth) *)
}

(* prefixes longer than this stop being refined: deeper tasks are
   cheap enough that further splitting only adds per-task overhead *)
let max_refine_depth = 12

let split_frontier (config : config) (ctx : ctx) (st0 : state) :
    engine * stask list =
  let seng = make_engine ctx config in
  let mk_task prefix leaf st =
    {
      sk_prefix = prefix;
      sk_state = st;
      sk_leaf = leaf;
      sk_cost = List.length st.work;
    }
  in
  let n0 = List.length st0.path_cond in
  (* run the engine from [t]'s captured root to the next fork; the
     task's accumulated conditions ride on the solver as temporary
     scopes so the fork's feasibility checks see the full path
     constraint (a rebuild inside the walk re-asserts them from the
     spine) *)
  let refine t =
    let pushed = ref 0 in
    List.iter
      (fun c ->
        Solver.push !(seng.e_solver);
        Solver.assert_ !(seng.e_solver) c;
        Solver.push !(seng.e_probe);
        Solver.assert_ !(seng.e_probe) c;
        (match seng.e_qc with Some q -> Smt.Qcache.push q c | None -> ());
        seng.e_spine := c :: !(seng.e_spine);
        incr pushed)
      (conds_since n0 t.sk_state);
    let children = ref [] in
    Fun.protect
      ~finally:(fun () ->
        for _ = 1 to !pushed do
          Solver.pop !(seng.e_solver);
          Solver.pop !(seng.e_probe);
          (match seng.e_qc with Some q -> Smt.Qcache.pop q | None -> ());
          seng.e_spine := List.tl !(seng.e_spine)
        done)
      (fun () ->
        try
          dfs seng
            ~split:
              (Some
                 ( 1,
                   fun rel leaf st ->
                     children :=
                       mk_task (t.sk_prefix @ rel) leaf st :: !children ))
            0 [] t.sk_state
        with Stop -> ());
    List.rev !children
  in
  let target = max 1 config.split_tasks in
  let tasks = ref [ mk_task [] false st0 ] in
  let refinable t =
    (not t.sk_leaf) && List.length t.sk_prefix < max_refine_depth
  in
  (* first max wins, so ties resolve by frontier (DFS) order *)
  let heaviest () =
    List.fold_left
      (fun best t ->
        if not (refinable t) then best
        else
          match best with
          | Some b when b.sk_cost >= t.sk_cost -> best
          | _ -> Some t)
      None !tasks
  in
  (* every refinement lengthens the refined task's prefix or marks it
     a leaf, so the loop terminates even without the round bound *)
  let rounds = ref 0 in
  let continue_ = ref true in
  while
    !continue_
    && List.length !tasks < target
    && !rounds < 4 * target
    && not (past_deadline config)
  do
    incr rounds;
    match heaviest () with
    | None -> continue_ := false
    | Some t ->
        let children = refine t in
        tasks :=
          List.concat_map (fun x -> if x == t then children else [ x ]) !tasks
  done;
  (seng, !tasks)

let run_frontier (config : config) (ctx : ctx) (st0 : state) =
  let reg = ctx.obs in
  let c_subtrees = Obs.Registry.counter reg "explore.subtrees" in

  (* phase 1 — adaptive split on the caller's context/solver, pruning
     infeasible branches as it goes; every task roots a feasible
     subtree (or carries a single completed shallow path).  The
     splitter emits no tests, so the merge alone controls test/path
     accounting.  After this point the splitter's context and solver
     are frozen: they are the shared clone parent for every task. *)
  let seng, task_list =
    Obs.Span.with_ reg "split" (fun () -> split_frontier config ctx st0)
  in
  Solver.flush_stats !(seng.e_solver);
  Solver.flush_stats !(seng.e_probe);
  let parent_solver = !(seng.e_solver) in
  let parent_probe = !(seng.e_probe) in
  let parent_qc = seng.e_qc in
  let n0 = List.length st0.path_cond in
  let tasks = Array.of_list task_list in
  let n = Array.length tasks in
  Obs.Counter.add c_subtrees n;

  (* shared scheduling state.  [slots] is written once per index by
     whichever worker runs the task; publication to the merge is
     ordered by [mu] (prefix scan) and [Domain.join].  [cut_at] is the
     first task index the merge will reject; it only ever decreases
     from [max_int] once, so a task observed past the cut stays past
     it. *)
  let slots = Array.make n Pending in
  let cut_at = Atomic.make max_int in
  (* (index, merged tests) of the contiguous Done prefix: lets the
     worker running task [index] compute its exact remaining test
     budget (single writer under [mu]; the boxed pair swaps
     atomically, readers see a consistent — possibly stale — value) *)
  let prefix_acc = Atomic.make (0, 0) in
  let mu = Mutex.create () in
  let pcomplete = ref 0 in
  let acc_tests = ref 0 and acc_paths = ref 0 and acc_cov = ref IntSet.empty in
  (* tasks whose kept tests were already delivered to [on_test] by the
     prefix scan; the final merge re-derives the same kept lists (same
     accounting, same order) and only streams tasks past this mark *)
  let streamed = ref 0 in
  (* prefix scan under [mu]: advance over completed slots in splitter
     order, mirroring the merge's accounting exactly; when the budget
     fills, publish the cut so in-flight workers abort early.  With an
     [on_test] callback installed this is also where tests stream: the
     contiguous Done prefix is final — scheduling can only extend it,
     never change it.  Otherwise it is pure optimisation — the final
     merge recomputes from the slots. *)
  let advance () =
    let continue_ = ref true in
    while !continue_ && !pcomplete < n && Atomic.get cut_at > !pcomplete do
      match slots.(!pcomplete) with
      | Pending -> continue_ := false
      | Dropped ->
          (* only tasks at or past a published cut are dropped, and the
             scan stops at the cut, so this is unreachable; skipping is
             the harmless choice *)
          incr pcomplete
      | Done r ->
          if
            budget_reached config ~ntests:!acc_tests ~npaths:!acc_paths
          then begin
            Atomic.set cut_at !pcomplete;
            continue_ := false
          end
          else begin
            let kept, cov =
              merge_accept config ~cov:!acc_cov ~ntests:!acc_tests r
            in
            (match config.on_test with
            | Some f ->
                List.iter f kept;
                streamed := !pcomplete + 1
            | None -> ());
            acc_tests := !acc_tests + List.length kept;
            acc_paths := !acc_paths + r.tr_paths;
            acc_cov := cov;
            incr pcomplete
          end
    done;
    Atomic.set prefix_acc (!pcomplete, !acc_tests)
  in

  let run_task wreg i =
    (if i >= Atomic.get cut_at then slots.(i) <- Dropped
     else
       let task = tasks.(i) in
       (* one private registry per task: a dropped task's metrics
          vanish with it, keeping merged totals scheduling
          independent *)
       let treg = Obs.Registry.create ~record_spans:false () in
       match
         Obs.Span.with_ wreg
           ~args:
             [
               ("task", string_of_int i);
               ("prefix", prefix_to_string task.sk_prefix);
             ]
           "subtree"
           (fun () ->
             (* import the captured root into a private clone of the
                splitter's term context, then warm-clone the splitter's
                solvers: imported terms keep their tags, so the cloned
                blaster's caches — and the cloned CDCL core's learnt
                clauses — apply as-is *)
             Obs.Counter.incr
               (Obs.Registry.counter treg "explore.snapshot_restores");
             let tm_restore =
               Obs.Registry.timer treg "explore.t_snapshot_restore"
             in
             let t0 = Obs.Clock.now () in
             let tctx, st, base, solver, probe =
               Obs.Span.with_ wreg "snapshot_restore" (fun () ->
                   let ectx = Expr.clone_ctx ctx.ectx in
                   let imp = Expr.importer ectx in
                   let tctx =
                     clone_ctx_for_task ctx ~ectx ~obs:treg
                       ~rng:(Random.State.make [| ctx.opts.seed |])
                   in
                   let st = map_terms imp task.sk_state in
                   let base = List.map imp (conds_since n0 task.sk_state) in
                   let solver = Solver.clone ~obs:treg ~ectx parent_solver in
                   List.iter (Solver.assert_ solver) base;
                   let probe = Solver.clone ~obs:treg ~ectx parent_probe in
                   List.iter (Solver.assert_ probe) base;
                   (tctx, st, base, solver, probe))
             in
             Obs.Timer.add tm_restore (Obs.Clock.now () -. t0);
             (* the abort hook closes over the engine to read its
                emission count, so tie the knot through a cell *)
             let eng_cell = ref None in
             let extra_check () =
               if i >= Atomic.get cut_at then raise Abort;
               (* tight self-cap: once the merge prefix has reached
                  this task, the remaining test budget is exact and
                  scheduling independent.  In Dfs/Rnd the merge keeps
                  emitted tests in order, so anything past the bound
                  would be truncated anyway — stop instead of
                  exploring it (the big win for path_jobs=1, where
                  the prefix always tracks the running task).  Under
                  Cov the global filter can drop earlier tests and
                  need more from this task, so only the per-task
                  [max_tests] cap in [check_budget] applies there. *)
               match (!eng_cell, config.max_tests) with
               | Some e, Some m when config.strategy <> Cov ->
                   let p, at = Atomic.get prefix_acc in
                   if p = i && e.e_emitted >= m - at then raise Stop
               | _ -> ()
             in
             (* per-task query cache, cloned from the splitter's: every
                task of a run sees the same seed facts no matter which
                worker runs it, and the clone shares no mutable state,
                so verdicts stay a pure function of the task *)
             let qc =
               match parent_qc with
               | Some q -> Some (Smt.Qcache.clone ~obs:treg q)
               | None -> None
             in
             let eng =
               make_engine ~base ~solver ~probe ?qc ~count_tests:false
                 ~extra_check tctx config
             in
             eng_cell := Some eng;
             (* seed the model cache: the splitter proved the prefix
                feasible, so this check cannot return Unsat, and it
                gives the probe a model that satisfies the base — a
                warm clone's inherited model need not.  A check cut by
                the conflict budget seeds nothing. *)
             if base <> [] then begin
               match Solver.check !(eng.e_probe) with
               | _ ->
                   Option.iter
                     (fun q ->
                       Smt.Qcache.note_model q (Solver.capture_model !(eng.e_probe)))
                     eng.e_qc
               | exception Smt.Sat.Budget_exhausted -> ()
             end;
             (try dfs eng ~split:None 0 [] st with Stop -> ());
             Solver.flush_stats !(eng.e_solver);
             Solver.flush_stats !(eng.e_probe);
             (match eng.e_qc with Some q -> Smt.Qcache.publish q | None -> ());
             {
               tr_tests = List.rev eng.e_tests;
               tr_paths =
                 Obs.Snapshot.get_int (Obs.Registry.snapshot treg)
                   "explore.paths";
               tr_snap = Obs.Registry.snapshot treg;
             })
       with
       | r -> slots.(i) <- Done r
       | exception Abort -> slots.(i) <- Dropped
       | exception e ->
           (* a task that dies here dies identically for every
              path_jobs value (nothing scheduling dependent reaches
              it), so dropping keeps determinism; still loud because
              it should not happen *)
           Logs.err (fun m ->
               m "subtree task %d (prefix %s) failed: %s" i
                 (prefix_to_string tasks.(i).sk_prefix)
                 (Printexc.to_string e));
           slots.(i) <- Dropped);
    Mutex.protect mu advance
  in
  (* phase 2 — workers.  Task indices are dealt round-robin into one
     queue per worker; each queue drains through an atomic cursor, so
     owners pop their own queue and idle workers steal from the
     others' (fetch_and_add hands out each index exactly once). *)
  (* workers beyond the host's real parallelism only add domain
     overhead (minor-GC synchronisation across oversubscribed domains
     dwarfs the per-task work), so the request is capped by the host;
     the split and merge are worker-count independent, so this cannot
     change the output *)
  let host_cap = max 1 (Domain.recommended_domain_count ()) in
  let req_workers =
    if n = 0 then 1 else max 1 (min config.path_jobs (min host_cap n))
  in
  let wregs = ref [||] in
  (* an [on_test] callback may raise on any worker: [Pool.run] joins
     every domain and returns the pool's tokens before re-raising *)
  Pool.run req_workers (fun nw ->
      let queues =
        Array.init nw (fun w ->
            let l = ref [] in
            for i = n - 1 downto 0 do
              if i mod nw = w then l := i :: !l
            done;
            Array.of_list !l)
      in
      let cursors = Array.init nw (fun _ -> Atomic.make 0) in
      let take_task w =
        let from q =
          let i = Atomic.fetch_and_add cursors.(q) 1 in
          if i < Array.length queues.(q) then Some queues.(q).(i) else None
        in
        let rec scan k =
          if k >= nw then None
          else
            let q = (w + k) mod nw in
            match from q with Some i -> Some (i, q <> w) | None -> scan (k + 1)
        in
        scan 0
      in
      wregs := Array.init nw (fun _ -> Obs.Registry.create ());
      fun w ->
        let wreg = !wregs.(w) in
        let c_steals = Obs.Registry.counter wreg "explore.steals" in
        Obs.Span.with_ wreg "worker" (fun () ->
            let rec loop () =
              match take_task w with
              | None -> ()
              | Some (i, stolen) ->
                  if stolen then Obs.Counter.incr c_steals;
                  run_task wreg i;
                  loop ()
            in
            loop ()));
  (match parent_qc with Some q -> Smt.Qcache.publish q | None -> ());

  (* phase 3 — deterministic merge: walk tasks in splitter order,
     re-running the exact accounting of [advance] while collecting
     tests and absorbing accepted task registries into the run's.
     Tests are counted here (workers deferred the counter), so
     [explore.tests] equals the emitted test count for every
     path_jobs. *)
  let merged_tests = ref [] in
  let merged_cov = ref IntSet.empty in
  let ntests = ref 0 and npaths = ref 0 in
  let midx = ref 0 in
  (try
     Array.iter
       (fun slot ->
         match slot with
         | Done r ->
             if
               budget_reached config ~ntests:!ntests ~npaths:!npaths
             then raise Exit;
             let kept, cov =
               merge_accept config ~cov:!merged_cov ~ntests:!ntests r
             in
             (* stream tasks the prefix scan did not reach; its kept
                lists for the ones it did are identical to [kept] here
                (same accounting, same order), so together the stream
                is exactly [result.tests] *)
             (match config.on_test with
             | Some f when !midx >= !streamed -> List.iter f kept
             | _ -> ());
             incr midx;
             (* the *boundary* task — the one on which [max_tests]
                fills — is explored to a scheduling-dependent extent
                (a worker stops at the exact remaining budget only
                when the merge prefix has caught up to it), so its
                exploration counters stay out of the merged registry;
                every other absorbed task is always fully explored.
                The test set is unaffected: the merge keeps exactly
                the budgeted prefix either way. *)
             let boundary =
               match config.max_tests with
               | Some m -> !ntests + List.length kept >= m
               | None -> false
             in
             if not boundary then begin
               Obs.Registry.absorb reg r.tr_snap;
               npaths := !npaths + r.tr_paths
             end;
             Obs.Counter.add seng.e_cells.c_tests (List.length kept);
             merged_tests := List.rev_append kept !merged_tests;
             merged_cov := cov;
             ntests := !ntests + List.length kept
         | Pending | Dropped ->
             (* every slot before the cut is Done; reaching a dropped
                slot means the cut is here *)
             raise Exit)
       slots
   with Exit -> ());
  (* worker registries carry only scheduling-local activity (steal
     counts, spans); absorb the counters and expose the registries as
     trace tracks *)
  Array.iter (fun w -> Obs.Registry.absorb reg (Obs.Registry.snapshot w)) !wregs;
  let workers =
    Array.to_list (Array.mapi (fun w r -> (Printf.sprintf "path-worker-%d" w, r)) !wregs)
  in
  (List.rev !merged_tests, !merged_cov, workers)

(* ------------------------------------------------------------------ *)
(* Driver dispatch

   The run reports deltas against a baseline snapshot, so a registry
   that already carries earlier runs (same prepared context) stays
   sound. *)

let run ?(config = default_config) (ctx : ctx) (st0 : state) : result =
  let reg = ctx.obs in
  let snap0 = Obs.Registry.snapshot reg in
  let t_start = Obs.Clock.now () in
  let sp_explore = Obs.Span.enter reg "explore" in
  let tests, covered, workers =
    if config.path_jobs >= 1 then run_frontier config ctx st0
    else run_seq config ctx st0
  in
  let n_seq = List.length (List.filter Testspec.is_sequence tests) in
  if n_seq > 0 then
    Obs.Counter.add (Obs.Registry.counter reg "explore.sequence_tests") n_seq;
  Obs.Span.exit reg sp_explore;
  let total = Obs.Clock.now () -. t_start in
  Obs.Timer.add (Obs.Registry.timer reg "explore.total_time") total;
  let d = Obs.Snapshot.diff (Obs.Registry.snapshot reg) snap0 in
  {
    tests;
    covered;
    total_stmts = ctx.nstmts;
    stats = stats_of_snapshot d;
    solve_time = Obs.Snapshot.get_float d "solver.time";
    total_time = total;
    obs = d;
    workers;
  }

(* ------------------------------------------------------------------ *)
(* Test hook: the frontier the adaptive splitter would hand to
   workers — every task's prefix and captured state (a subtree root,
   or the leaf state of a completed shallow path), in the splitter's
   term context *)

let frontier ?(config = default_config) (ctx : ctx) (st0 : state) :
    (int list * state) list =
  let eng, tasks = split_frontier config ctx st0 in
  Solver.flush_stats !(eng.e_solver);
  Solver.flush_stats !(eng.e_probe);
  List.map (fun t -> (t.sk_prefix, t.sk_state)) tasks
