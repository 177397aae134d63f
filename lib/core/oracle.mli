(** The top-level test-oracle API — everything from P4 source to tests,
    mirroring the paper's three-phase workflow (§4):

    + {!prepare} parses the target's architecture prelude plus the user
      program and runs the mid-end passes (constant folding with
      dead-branch elimination, typing, stack-index elimination,
      statement numbering);
    + {!instantiate} builds a run context over the prepared program
      and instantiates the target's pipeline template in it;
    + {!Explore.run} symbolically executes the whole-program semantics
      and emits abstract test specifications.

    {!explore_prepared} performs the last two, {!generate} all three. *)

type prepared = {
  prog : P4.Ast.program;  (** prelude plus program, after the mid-end *)
  tctx : P4.Typing.ctx;  (** typing context of [prog] *)
  nstmts : int;  (** countable statements (the coverage denominator) *)
  target : (module Target_intf.S);
  prep_time : float;  (** seconds spent in phase 1 (Fig. 7's "IR prep") *)
  qstore : Smt.Qcache.store;
      (** query-cache store shared by every run over this prepared
          program: SAT/UNSAT slice facts published by one run are
          seeded into the next ({!explore_prepared} passes it to
          {!Explore.run}). *)
}
(** Phase 1's output and nothing of any run: no term context, metrics
    registry or options, so a cached value stays the same size however
    many runs explore it (only [qstore] grows).  Part of the prepared
    payload, hence fingerprint version "p4tg-fp3". *)

(** {1 Structured preparation errors} *)

type prepare_error =
  | Parse_error of { msg : string; line : int; col : int }
      (** lexer or parser rejection, with the source position *)
  | Type_error of string  (** the program is not well-typed *)
  | Arch_error of string
      (** the program does not fit the target architecture
          ({!Runtime.Exec_error} from the target's pipeline template,
          see {!prepare_result}) *)

val prepare_error_message : prepare_error -> string
(** Human-readable one-liner ("LINE:COL: parse error: ..."). *)

val prepare_error_kind : prepare_error -> string
(** Stable machine tag: ["parse"], ["typecheck"] or ["exec"] — the
    serve protocol's error kinds. *)

val prepare_result :
  ?obs:Obs.Registry.t ->
  (module Target_intf.S) ->
  string ->
  (prepared, prepare_error) result
(** {!prepare} with every front-end failure captured as data instead
    of an exception — the entry point for long-lived callers (the
    serve daemon) where one bad program must fail one request, not the
    process.  One throwaway {!instantiate} runs the target's [init], so
    a program the target cannot instantiate is an [Arch_error] here. *)

(** {1 Program fingerprints}

    The cache key of the prepared-oracle cache ({!Serve} in
    [lib/serve]): a digest of the source's {e token stream} (so
    whitespace and comments never cause a cache miss), the
    architecture name, and a format version.  The mid-end is
    options-independent ([Runtime.options] only steers exploration),
    so no option joins the hash; a pass that starts reading an option
    must add that field here and bump {!fingerprint_version}. *)

val fingerprint_version : string

val fingerprint : arch:string -> string -> (string, prepare_error) result
(** [fingerprint ~arch source] is the hex cache key, or [Parse_error]
    when the source does not even lex. *)

val prepare :
  ?opts:Runtime.options ->
  ?obs:Obs.Registry.t ->
  (module Target_intf.S) ->
  string ->
  prepared
(** [prepare target source] runs phase 1.  Raises
    {!P4.Parser.Error} on syntax errors and {!P4.Typing.Type_error}
    when the program is not well-typed.  Allocates no term context:
    that is {!instantiate}'s job, once per run.

    [obs] receives the [prepare] / [parse] / [passes] spans and the
    [oracle.prep_time] timer; the prepared value keeps no reference to
    it.  [opts] is ignored: the mid-end reads no option. *)

type run = {
  result : Explore.result;
  prepared : prepared;
  obs : Obs.Registry.t;  (** the run's metrics registry, see {!registry} *)
}

val registry : run -> Obs.Registry.t
(** The run's metrics registry — counters, timers and spans recorded
    by every layer during the run: the explorer, solver, SAT core and
    concolic resolver, and for {!generate} also [prepare]'s spans and
    timer.  Export it with {!Obs.Trace.write_chrome} or print a
    {!Obs.Registry.snapshot}. *)

val instantiate :
  ?opts:Runtime.options ->
  ?obs:Obs.Registry.t ->
  prepared ->
  Runtime.ctx * Runtime.state
(** Phase 2, and the only place a run context is built: a fresh
    {!Smt.Expr.ctx} reporting into [obs] (a fresh registry when
    omitted), over the already-passed program, with the target's
    extern, reject and next-packet hooks and caller-chosen options.
    The returned state has the target's block sequence and glue
    continuations queued.  A prepared value serves runs with any seed,
    strategy or budget — the mid-end artifacts do not depend on them
    (see {!fingerprint}).  Terms and solvers never cross runs, so any
    number of runs can coexist and interleave, and it is safe to call
    concurrently from several domains on the same [prepared]: only
    immutable preparation data is read.  Raises {!Runtime.Exec_error}
    when the program does not fit the architecture. *)

val generate :
  ?opts:Runtime.options ->
  ?config:Explore.config ->
  (module Target_intf.S) ->
  string ->
  run
(** End-to-end test generation for a P4 source string: {!prepare},
    then {!explore_prepared}, both into one fresh registry, on the
    calling domain.  The run's [prepared] carries the real
    [prep_time]. *)

val explore_prepared :
  ?opts:Runtime.options ->
  ?config:Explore.config ->
  ?obs:Obs.Registry.t ->
  prepared ->
  run
(** {!generate} minus phase 1 — the warm path of the prepared-oracle
    cache: {!instantiate} into [obs], then one sequential
    {!Explore.run} with the program's [qstore].  {!generate} runs this
    same code, so the test set is bit-identical to a {!generate} of the
    same source with the same options, and several requests can
    explore the same [prepared] concurrently.  The returned run's
    [prep_time] is [0.]: this run paid no preparation. *)

(** {1 Batch driver}

    Runs many oracle jobs across OCaml domains.  Each job owns its
    term context and solver stack (created by its own {!instantiate}),
    so jobs share no mutable term state; idle domains pull the next job
    from an atomic queue index.  Results depend only on each job's
    options (seed included), never on scheduling: [jobs = 1] and
    [jobs = N] produce identical test sets per job. *)

type job

val job :
  ?opts:Runtime.options ->
  ?config:Explore.config ->
  label:string ->
  (module Target_intf.S) ->
  string ->
  job
(** [job ~label target source] describes one end-to-end generation
    run, as {!generate} would perform it. *)

type outcome =
  | Finished of run
  | Failed of string  (** exception text of a job that raised *)

type batch = {
  outcomes : (string * outcome) list;
      (** (label, outcome) in submission order *)
  merged_stats : Explore.stats;
      (** the {!Explore.stats} façade projected from [merged_obs] *)
  merged_obs : Obs.Snapshot.t;
      (** per-domain metric registries, merged: counters and timers
          sum, gauges high-water.  Counter totals are scheduling
          independent — [jobs = 1] and [jobs = N] merge equal. *)
  batch_wall : float;  (** wall-clock seconds for the whole batch *)
}

val generate_batch : ?jobs:int -> job list -> batch
(** [generate_batch ~jobs js] runs the jobs on [min jobs (length js)]
    domains (the calling domain included).  [jobs] defaults to 1,
    which runs everything sequentially on the calling domain.  Extra
    domains are drawn from the process-wide {!Explore.Pool}, shared
    with the selftest campaign and the serve daemon's executors. *)

(** {1 Coverage reporting (§7)} *)

type coverage_report = {
  covered_count : int;
  total_count : int;
  percentage : float;
  uncovered : int list;  (** statement ids never exercised by any test *)
}

val coverage_report : run -> coverage_report
val pp_coverage : Format.formatter -> coverage_report -> unit
