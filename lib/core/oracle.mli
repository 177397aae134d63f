(** The top-level test-oracle API — everything from P4 source to tests,
    mirroring the paper's three-phase workflow (§4):

    + {!prepare} parses the target's architecture prelude plus the user
      program and runs the mid-end passes (constant folding, dead-code
      elimination, stack-index elimination, statement numbering);
    + the target's pipeline template is instantiated
      ({!initial_state});
    + {!Explore.run} symbolically executes the whole-program semantics
      and emits abstract test specifications.

    {!generate} performs all three. *)

type prepared = {
  ctx : Runtime.ctx;
  prog : P4.Ast.program;
  target : (module Target_intf.S);
  prep_time : float;  (** seconds spent in phase 1 (Fig. 7's "IR prep") *)
  qstore : Smt.Qcache.store;
      (** query-cache store shared by every run over this prepared
          program: SAT/UNSAT slice facts published by one run are
          seeded into the next ({!generate}/{!explore_prepared} wire
          it into the exploration config unless the caller set one).
          Part of the prepared payload, hence fingerprint version
          "p4tg-fp2". *)
}

(** {1 Structured preparation errors} *)

type prepare_error =
  | Parse_error of { msg : string; line : int; col : int }
      (** lexer or parser rejection, with the source position *)
  | Type_error of string  (** the program is not well-typed *)
  | Arch_error of string
      (** the program does not fit the target architecture
          ({!Runtime.Exec_error} during phase 1) *)

val prepare_error_message : prepare_error -> string
(** Human-readable one-liner ("LINE:COL: parse error: ..."). *)

val prepare_error_kind : prepare_error -> string
(** Stable machine tag: ["parse"], ["typecheck"] or ["exec"] — the
    serve protocol's error kinds. *)

val raise_prepare_error : prepare_error -> 'a
(** Re-raises the exception the error was captured from
    ({!P4.Parser.Error}, {!P4.Typing.Type_error} or
    {!Runtime.Exec_error}), byte-for-byte as [prepare] would have
    raised it. *)

val prepare_result :
  ?opts:Runtime.options ->
  ?obs:Obs.Registry.t ->
  (module Target_intf.S) ->
  string ->
  (prepared, prepare_error) result
(** {!prepare} with every front-end failure captured as data instead
    of an exception — the entry point for long-lived callers (the
    serve daemon) where one bad program must fail one request, not the
    process. *)

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
    {!P4.Parser.Error} on syntax errors and {!Runtime.Exec_error} when
    the program does not fit the architecture.  Allocates a fresh
    {!Smt.Expr.ctx} for the run, so any number of prepared values can
    coexist and interleave; terms and solvers never cross runs.

    [obs] is the run's metrics registry (a fresh one is allocated when
    omitted, reachable as [ctx.Runtime.obs] or via {!registry}).  The
    whole stack reports into it: [prepare] records the [prepare] /
    [parse] / [passes] spans and the [oracle.prep_time] timer, and the
    explorer, solver, SAT core and concolic resolver add their own
    metrics during {!Explore.run}. *)

val initial_state : prepared -> Runtime.state
(** Pipeline-template instantiation (phase 2): the returned state has
    the target's block sequence and glue continuations queued. *)

type run = { result : Explore.result; prepared : prepared }

val registry : run -> Obs.Registry.t
(** The run's metrics registry — counters, timers and spans recorded
    by every layer during the run ([= run.prepared.ctx.Runtime.obs]).
    Export it with {!Obs.Trace.write_chrome} or print a
    {!Obs.Registry.snapshot}. *)

val instantiate :
  ?opts:Runtime.options ->
  ?obs:Obs.Registry.t ->
  prepared ->
  Runtime.ctx * Runtime.state
(** A request-scoped replica over the cached front-end work: a fresh
    term context reporting into [obs], over the same already-passed
    program, re-initialised by the same target with caller-chosen
    options.  Preparation is deterministic, so the replica's initial
    state is structurally identical to [initial_state p] under the
    same options.  A cached [prepared] value serves requests with any
    seed, strategy or budget — the mid-end artifacts do not depend on
    them (see {!fingerprint}).  Safe to call concurrently from several
    domains on the same [prepared]: only immutable preparation data is
    read. *)

val generate :
  ?opts:Runtime.options ->
  ?config:Explore.config ->
  (module Target_intf.S) ->
  string ->
  run
(** End-to-end test generation for a P4 source string: prepare, then
    one sequential {!Explore.run} on the calling domain. *)

val explore_prepared :
  ?opts:Runtime.options ->
  ?config:Explore.config ->
  ?obs:Obs.Registry.t ->
  prepared ->
  run
(** {!generate} minus phase 1 — the warm path of the prepared-oracle
    cache.  Explores a fresh {!instantiate}d replica, so the test set
    is bit-identical to a single-shot {!generate} of the same source
    with the same options, and several requests can explore the same
    [prepared] concurrently.  The returned run's [prep_time] is [0.]:
    this run paid no preparation. *)

(** {1 Batch driver}

    Runs many oracle jobs across OCaml domains.  Each job owns its
    term context and solver stack (created by its own {!prepare}), so
    jobs share no mutable term state; idle domains pull the next job
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
