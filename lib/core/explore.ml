(* Path exploration and test emission.

   Default strategy is depth-first search to exhaustion with eager
   pruning of unsatisfiable branches, using the solver incrementally
   (scopes pushed and popped along the DFS spine), exactly as the
   paper configures Z3 (§6).  Alternative strategies enabled by the
   continuation design (§5.1.2): random branch ordering, and a
   coverage mode that walks in DFS order but builds and keeps only the
   paths that add statement coverage, stopping once every statement is
   covered.

   One sequential walk explores each program, over the caller's
   context; parallelism lives a level up, across programs (batch,
   selftest campaign) and across serve requests, through {!Pool}. *)

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
      (** ignored: every run explores sequentially.  Kept only so
          existing callers that set it still build; slated for
          deletion. *)
  on_test : (Testspec.t -> unit) option;
      (** incremental test callback: invoked once per *accepted* test,
          in emission order, as paths close — before the run finishes,
          so the stream order equals [result.tests].  A slow consumer
          throttles the walk.  Exceptions from the callback abort the
          run. *)
  deadline : float option;
      (** absolute {!Obs.Clock.now} time after which exploration stops
          gracefully (checked before every symbolic step): tests
          emitted so far are kept.  A run
          cut by its deadline is time-dependent, so determinism
          guarantees only hold for runs that finish before it. *)
  (* The field below is test-only: the CLI, the daemon and the
     benchmarks always run with its default. *)
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
    on_test = None;
    deadline = None;
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
  obs : Obs.Snapshot.t;  (** the run's registry delta *)
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

let coverage_pct r =
  if r.total_stmts = 0 then 100.0
  else 100.0 *. float_of_int (IntSet.cardinal r.covered) /. float_of_int r.total_stmts

exception Stop

(* ------------------------------------------------------------------ *)
(* Domain pool

   One process-wide token budget shared by every parallel driver
   (batch jobs, campaign workers, serve executors), so drivers that
   run at the same time in one process spawn at most the pool's worth
   of extra domains between them.  [acquire] never blocks: it grants
   what is available (possibly 0) and the caller runs the remainder on
   its own domain. *)
module Pool = struct
  (* up to 8-way (7 tokens plus the calling domain) even on hosts with
     fewer cores: a run's output never depends on its worker count, so
     oversubscription costs only throughput, and it lets [--jobs N]
     and concurrent serve requests run — and their determinism tests
     check — real concurrency on a 2-vCPU machine *)
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

  (* [run n body] runs [body w] on each of up to [n] workers: worker 0
     on the calling domain, one spawned domain per token granted.
     Whatever any worker raises, every spawned domain is joined and the
     tokens are returned before the first exception is re-raised. *)
  let run n (body : int -> unit) =
    let extra = acquire (n - 1) in
    let domains = ref [] in
    let outcome f = match f () with () -> None | exception e -> Some e in
    let main =
      outcome (fun () ->
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
    run (min n count) (fun w ->
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

(* the test of a path under a resolved model: model reads, taint masks
   and entry concretisation *)
let test_of_model ctx (st : state) model : Testspec.t =
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
  match List.rev_map inject (current :: st.seq_done) with
  | [ Testspec.SInject { input; outputs } ] ->
      Testspec.make ~input ~outputs ~entries ~registers ~covered ~comment
  | steps -> Testspec.make_seq ~steps ~entries ~registers ~covered ~comment

(* [t_randomize] and [t_readout] time the emission phases around the
   concolic resolve, which [concolic.time] already times *)
let build_test ctx ~t_randomize ~t_readout solver (st : state) : Testspec.t option =
  Obs.Timer.time t_randomize (fun () -> randomize_free_inputs ctx solver st);
  match Concolic.resolve solver st with
  | Concolic.Infeasible -> None
  | Concolic.Resolved model ->
      Some (Obs.Timer.time t_readout (fun () -> test_of_model ctx st model))

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
   state).  This is an implicit step, not a branch. *)
let seq_boundary (ctx : ctx) (st : state) : state option =
  if st.seq_left > 0 then Some (ctx.next_packet_hook ctx st) else None

(* ------------------------------------------------------------------ *)
(* DFS engine

   The engine is the state of one depth-first walk: a context, two
   solvers (each holding only its live scopes: a pop frees what the
   scope added), the spine of active assertions, and the accumulated
   tests. *)

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
  tm_step : Obs.Timer.t;
  tm_emit : Obs.Timer.t;
  tm_randomize : Obs.Timer.t;
  tm_readout : Obs.Timer.t;
  tm_emit_solve : Obs.Timer.t;
  tm_branch : Obs.Timer.t;
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
    tm_step = Obs.Registry.timer reg "explore.t_step";
    tm_emit = Obs.Registry.timer reg "explore.t_emit";
    tm_randomize = Obs.Registry.timer reg "explore.t_randomize";
    tm_readout = Obs.Registry.timer reg "explore.t_readout";
    tm_emit_solve = Obs.Registry.timer reg "explore.t_emit_solve";
    tm_branch = Obs.Registry.timer reg "explore.t_branch";
    (* solver time lives in the registry, which both solvers of a run
       share *)
    tm_solve = Obs.Registry.timer reg "solver.time";
  }

type engine = {
  e_ctx : ctx;
  e_cfg : config;
  e_cells : cells;
  e_solver : Solver.t;
      (* the *emission* solver: it carries only conditions of paths
         actually descended into (the feasible spine conds) and
         answers every test-construction query.  Its assertion and
         check history is a pure function of the explored tree — in
         particular independent of the query cache — which is what
         keeps emitted tests bit-identical with the cache on or off. *)
  e_probe : Solver.t;
      (* the *probe* solver: answers the branch feasibility checks the
         query cache cannot.  It holds the outermost [e_probe_depth]
         conditions of the spine and is synced to the whole spine only
         when it checks, so a branch the cache answers never touches
         it *)
  mutable e_probe_depth : int;
  e_qc : Smt.Qcache.t option;
      (* branch-feasibility query cache; [None] when
         [config.query_cache] is off *)
  e_spine : Expr.t list ref;
      (* the DFS spine's active assertions, innermost first: the
         emission solver's scope stack plus, during a branch's verdict,
         the candidate condition.  Lets us sync the probe *)
  mutable e_depth : int;  (* length of [e_spine] *)
  mutable e_tests : Testspec.t list;  (* newest first *)
  mutable e_covered : IntSet.t;
  mutable e_emitted : int;
  e_paths0 : int;
}

let new_solver (ctx : ctx) = Solver.create ~obs:ctx.obs ctx.ectx

let make_engine ?store (ctx : ctx) (cfg : config) =
  let cells = make_cells ctx.obs in
  let e_qc =
    if cfg.query_cache then Some (Smt.Qcache.create ~obs:ctx.obs ?store ()) else None
  in
  {
    e_ctx = ctx;
    e_cfg = cfg;
    e_cells = cells;
    e_solver = new_solver ctx;
    e_probe = new_solver ctx;
    e_probe_depth = 0;
    e_qc;
    e_spine = ref [];
    e_depth = 0;
    e_tests = [];
    e_covered = IntSet.empty;
    e_emitted = 0;
    e_paths0 = Obs.Counter.value cells.c_paths;
  }

(* the spine conditions at depths [lo, hi), outermost first; depth 0
   is the outermost *)
let spine_slice eng lo hi =
  let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
  let rec take k l acc = if k = 0 then acc else take (k - 1) (List.tl l) (List.hd l :: acc) in
  take (hi - lo) (drop (eng.e_depth - hi) !(eng.e_spine)) []

(* one scope per condition, outermost first *)
let push_conds s conds =
  List.iter
    (fun c ->
      Solver.push s;
      Solver.assert_ s c)
    conds

let check_budget eng =
  (match eng.e_cfg.max_tests with
  | Some n when eng.e_emitted >= n -> raise Stop
  | _ -> ());
  match eng.e_cfg.max_paths with
  | Some n when Obs.Counter.value eng.e_cells.c_paths - eng.e_paths0 >= n ->
      raise Stop
  | _ -> ()

let past_deadline (cfg : config) =
  match cfg.deadline with Some d -> Obs.Clock.now () > d | None -> false

(* Under Cov a path is kept only if it adds statement coverage, so the
   novelty check runs before the test is built: a dropped path costs no
   randomisation, concolic solve or model evaluation.  Once every
   statement is covered no later path can be kept, so the walk
   stops. *)
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
         match
           build_test eng.e_ctx ~t_randomize:eng.e_cells.tm_randomize
             ~t_readout:eng.e_cells.tm_readout eng.e_solver st
         with
         | exception Smt.Sat.Budget_exhausted ->
             Obs.Counter.incr eng.e_cells.c_disc_budget
         | None -> Obs.Counter.incr eng.e_cells.c_disc_concolic
         | Some t ->
             eng.e_covered <- IntSet.union st.covered eng.e_covered;
             full := cov && IntSet.cardinal eng.e_covered >= eng.e_ctx.nstmts;
             Obs.Counter.incr eng.e_cells.c_tests;
             eng.e_emitted <- eng.e_emitted + 1;
             eng.e_tests <- t :: eng.e_tests;
             (* stream accepted tests as paths close *)
             match eng.e_cfg.on_test with Some f -> f t | None -> ());
      Obs.Timer.add eng.e_cells.tm_emit (Obs.Clock.now () -. t0);
      Obs.Timer.add eng.e_cells.tm_emit_solve
        (Obs.Timer.value eng.e_cells.tm_solve -. solve0));
  if !full then raise Stop;
  check_budget eng

(* the spine grows by the candidate [c] of a branch's verdict and of
   the subtree below it, and shrinks back when the branch is done; a
   probe deeper than the spine is trimmed to it *)
let push_spine eng c =
  eng.e_spine := c :: !(eng.e_spine);
  eng.e_depth <- eng.e_depth + 1

let pop_spine eng =
  eng.e_spine := List.tl !(eng.e_spine);
  eng.e_depth <- eng.e_depth - 1;
  while eng.e_probe_depth > eng.e_depth do
    Solver.pop eng.e_probe;
    eng.e_probe_depth <- eng.e_probe_depth - 1
  done

(* a branch-feasibility check on the probe, after pushing the spine
   conditions it lacks (the candidate among them): [None] when the SAT
   core's conflict budget cut it.  A cut branch is not entered, and its
   verdict is unknown, not infeasible: nothing is cached for it. *)
let probe_check eng =
  push_conds eng.e_probe (spine_slice eng eng.e_probe_depth eng.e_depth);
  eng.e_probe_depth <- eng.e_depth;
  Obs.Counter.incr eng.e_cells.c_branch_checks;
  match Solver.check eng.e_probe with
  | r -> Some (r = Solver.Sat)
  | exception Smt.Sat.Budget_exhausted ->
      Obs.Counter.incr eng.e_cells.c_budget_cut;
      None

(* branch ordering.  Rnd keys are 63-bit so key collisions (which
   would leave tie order to List.sort internals rather than the seed)
   are out of the picture even on wide branch lists. *)
let order eng branches =
  match eng.e_cfg.strategy with
  | Rnd ->
      List.map snd
        (List.sort
           (fun (ka, _) (kb, _) -> Int64.compare ka kb)
           (List.map
              (fun b -> (Random.State.int64 eng.e_ctx.rng Int64.max_int, b))
              branches))
  | Dfs | Cov -> branches

(* the DFS proper.  The deadline is checked before every step, so no
   branch — feasible, pruned or abandoned — runs past it. *)
let rec dfs eng st =
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
      | Some st' -> dfs eng st'
      | None -> finish eng st)
  | Some [] -> Obs.Counter.incr eng.e_cells.c_abandoned
  | Some [ { br_cond = None; br_state; _ } ] -> dfs eng br_state
  | Some branches ->
      List.iter
        (fun b ->
          match b.br_cond with
          | None -> dfs eng b.br_state
          | Some c when Expr.is_true c -> dfs eng b.br_state
          | Some c when Expr.is_false c ->
              Obs.Counter.incr eng.e_cells.c_infeasible
          | Some c ->
              (* [t_branch] times the feasibility verdict and the scope
                 pushes and pops on both solvers, never the subtree *)
              let tm = eng.e_cells.tm_branch in
              let t0 = Obs.Clock.now () in
              (* the candidate joins the spine, which a probe check
                 syncs the probe to (the query cache consults slices of
                 the path *without* [c], so it runs before the cache's
                 own push) *)
              push_spine eng c;
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
                              (Solver.capture_model eng.e_probe)
                        | Some false -> Smt.Qcache.note_unsat q
                        | None -> ());
                        r)
                | None ->
                    (* model reuse without the cache: if the probe's
                       last model already satisfies the branch
                       condition it witnesses the child's feasibility
                       (every condition entered since that model was
                       produced passed this same test, so the model
                       still satisfies the whole path; trimming the
                       probe drops its model) *)
                    if Solver.holds eng.e_probe c then Some true
                    else probe_check eng
              in
              (try
                 if feasible = Some true then begin
                   (* only feasible conditions reach the emission
                      solver, so its history never depends on how a
                      feasibility verdict was obtained *)
                   Solver.push eng.e_solver;
                   Solver.assert_ eng.e_solver c;
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
                       Solver.pop eng.e_solver;
                       Obs.Timer.add tm (Obs.Clock.now () -. t1))
                     (fun () -> dfs eng b.br_state)
                 end
                 else begin
                   Obs.Timer.add tm (Obs.Clock.now () -. t0);
                   if feasible = Some false then
                     Obs.Counter.incr eng.e_cells.c_infeasible
                 end
               with e ->
                 (* keep the spine and the probe consistent on any exit
                    (Stop, an [on_test] exception) *)
                 pop_spine eng;
                 raise e);
              let t1 = Obs.Clock.now () in
              pop_spine eng;
              Obs.Timer.add tm (Obs.Clock.now () -. t1))
        (order eng branches)

(* ------------------------------------------------------------------ *)
(* Driver

   The run reports deltas against a baseline snapshot, so a registry
   that already carries earlier runs stays sound.  [store] is the
   cross-run query-cache store: runs over one prepared program pass
   the same store, so cache facts one run publishes seed the next. *)

let run ?(config = default_config) ?store (ctx : ctx) (st0 : state) : result =
  let reg = ctx.obs in
  let snap0 = Obs.Registry.snapshot reg in
  let t_start = Obs.Clock.now () in
  let sp_explore = Obs.Span.enter reg "explore" in
  let eng = make_engine ?store ctx config in
  (try dfs eng st0 with Stop -> ());
  Solver.flush_stats eng.e_solver;
  Solver.flush_stats eng.e_probe;
  (match eng.e_qc with Some q -> Smt.Qcache.publish q | None -> ());
  let tests = List.rev eng.e_tests in
  let n_seq = List.length (List.filter Testspec.is_sequence tests) in
  if n_seq > 0 then
    Obs.Counter.add (Obs.Registry.counter reg "explore.sequence_tests") n_seq;
  Obs.Span.exit reg sp_explore;
  let total = Obs.Clock.now () -. t_start in
  Obs.Timer.add (Obs.Registry.timer reg "explore.total_time") total;
  let d = Obs.Snapshot.diff (Obs.Registry.snapshot reg) snap0 in
  {
    tests;
    covered = eng.e_covered;
    total_stmts = ctx.nstmts;
    stats = stats_of_snapshot d;
    solve_time = Obs.Snapshot.get_float d "solver.time";
    total_time = total;
    obs = d;
  }
