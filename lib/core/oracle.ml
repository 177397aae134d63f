(* Top-level test-oracle API: everything from P4 source to tests.

   Mirrors the three-phase workflow of §4:
   1. parse + prelude + mid-end passes ([prepare]),
   2. symbolic execution over whole-program semantics ([Explore.run]
      with the target's pipeline template),
   3. abstract test specifications ([Testspec.t]) that back ends
      concretize. *)

open Runtime

type prepared = {
  ctx : Runtime.ctx;
  prog : P4.Ast.program;
  target : (module Target_intf.S);
  prep_time : float;
  qstore : Smt.Qcache.store;
}

(* ------------------------------------------------------------------ *)
(* Structured preparation errors.

   The raising [prepare] below is the historical entry point (the CLI
   keys its exit behavior on the exception constructors); a long-lived
   caller — the serve daemon — needs the same failures as data so one
   bad program fails one request instead of the process. *)

type prepare_error =
  | Parse_error of { msg : string; line : int; col : int }
      (** lexer or parser rejection, with the source position *)
  | Type_error of string  (** the program is not well-typed *)
  | Arch_error of string
      (** the program does not fit the target architecture
          (mid-end/instantiation failures, {!Runtime.Exec_error}) *)

let prepare_error_message = function
  | Parse_error { msg; line; col } ->
      Printf.sprintf "%d:%d: parse error: %s" line col msg
  | Type_error msg -> "type error: " ^ msg
  | Arch_error msg -> msg

let prepare_error_kind = function
  | Parse_error _ -> "parse"
  | Type_error _ -> "typecheck"
  | Arch_error _ -> "exec"

(* the raising [prepare] reconstructs the original exception, so
   pre-existing handlers (CLI, tests) observe exactly what they always
   did *)
let raise_prepare_error = function
  | Parse_error { msg; line; col } ->
      raise (P4.Parser.Error (msg, { P4.Ast.line; col }))
  | Type_error msg -> raise (P4.Typing.Type_error msg)
  | Arch_error msg -> raise (Runtime.Exec_error msg)

(* ------------------------------------------------------------------ *)
(* Program fingerprints: the cache key of the prepared-oracle cache.

   The key digests the *token stream* of the source (so whitespace and
   comments cannot cause a miss), the architecture name (the prelude is
   part of what [prepare] compiles), and a format version.  The mid-end
   passes are options-independent today — [Runtime.options] only
   steers exploration — so no option joins the hash; if a pass ever
   starts reading an option, that field must be appended here and the
   version bumped, or stale prepared values would be served. *)

(* fp2: the prepared value now carries a query-cache store
   ([qstore]) whose digest sets are derived from the compiled term
   graph — prepared payloads from fp1 builds are not equivalent, so
   the version bumps (see DESIGN.md, "Fingerprint versioning") *)
let fingerprint_version = "p4tg-fp2"

let fingerprint ~arch (source : string) : (string, prepare_error) result =
  let buf = Buffer.create (String.length source) in
  Buffer.add_string buf fingerprint_version;
  Buffer.add_char buf '\000';
  Buffer.add_string buf arch;
  Buffer.add_char buf '\000';
  let add_token (t : P4.Lexer.token) =
    (match t with
    | P4.Lexer.IDENT s ->
        Buffer.add_string buf "i:";
        Buffer.add_string buf s
    | P4.Lexer.NUMBER { iv; width; signed; base = _ } ->
        (* base is notation, not meaning: 0x10 and 16 are the same
           token; width and signedness are semantic *)
        Buffer.add_string buf
          (Printf.sprintf "n:%d:%s:%b" iv
             (match width with Some w -> string_of_int w | None -> "-")
             signed)
    | P4.Lexer.STRING s ->
        Buffer.add_string buf "s:";
        Buffer.add_string buf s
    | t -> Buffer.add_string buf (P4.Lexer.show_token t));
    Buffer.add_char buf '\000'
  in
  match
    let lx = P4.Lexer.create source in
    let rec go () =
      match P4.Lexer.next lx with
      | P4.Lexer.EOF, _ -> ()
      | t, _ ->
          add_token t;
          go ()
    in
    go ()
  with
  | () -> Ok (Digest.to_hex (Digest.string (Buffer.contents buf)))
  | exception P4.Lexer.Error (msg, pos) ->
      Error (Parse_error { msg; line = pos.P4.Ast.line; col = pos.P4.Ast.col })

let prepare ?(opts = Runtime.default_options) ?obs (target : (module Target_intf.S))
    (source : string) : prepared =
  let module T = (val target) in
  (* the run's registry exists before its term context: the front-end
     phases below are already observed *)
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let t0 = Obs.Clock.now () in
  let sp = Obs.Span.enter obs "prepare" in
  (* [Runtime.make_ctx] below allocates a fresh term context for this
     run, so two prepared values coexist: terms and solvers of one run
     stay valid while another run explores *)
  let prelude, user =
    Obs.Span.with_ obs "parse" (fun () ->
        (P4.Parser.parse_program T.prelude, P4.Parser.parse_program source))
  in
  let prog, nstmts, tctx =
    Obs.Span.with_ obs "passes" (fun () ->
        let prog = prelude @ user in
        let prog = P4.Passes.fold prog in
        let tctx = P4.Typing.build prog in
        let prog = P4.Passes.elim_stack_indices tctx prog in
        let prog, nstmts = P4.Passes.number_statements prog in
        (prog, nstmts, tctx))
  in
  let ctx = Runtime.make_ctx ~opts ~obs prog ~nstmts tctx in
  ctx.extern_hook <- T.extern;
  ctx.reject_hook <- T.on_reject;
  (* sequence boundary: archive the finished packet, then let the
     target re-initialise its intrinsic metadata for the next one, so
     extern state (registers, counters, meters) persists while
     per-packet state starts fresh *)
  ctx.next_packet_hook <-
    (fun ctx st -> T.init ctx (Runtime.next_packet ctx ~port_width:T.port_width st));
  Obs.Span.exit obs sp;
  let prep_time = Obs.Clock.now () -. t0 in
  Obs.Timer.add (Obs.Registry.timer obs "oracle.prep_time") prep_time;
  { ctx; prog; target; prep_time; qstore = Smt.Qcache.create_store () }

let initial_state (p : prepared) : Runtime.state =
  let module T = (val p.target) in
  let st = Runtime.initial_state p.ctx ~port_width:T.port_width in
  T.init p.ctx st

type run = { result : Explore.result; prepared : prepared }

let registry (r : run) = r.prepared.ctx.Runtime.obs

(* [instantiate]: a request-scoped replica over the *cached* front-end
   work — its own term context and registry over the same (immutable,
   already passed) program, re-initialised by the same target.
   Because [make_ctx] and [T.init] are deterministic, the replica's
   initial state is structurally identical to [initial_state p].  It
   takes its own options (a cached prepared value serves requests with
   any seed/strategy/budget — the mid-end artifacts do not depend on
   them, see [fingerprint]) and its own registry, so a daemon can
   account each request separately. *)
let instantiate ?(opts = Runtime.default_options) ?obs (p : prepared) :
    Runtime.ctx * Runtime.state =
  let reg = match obs with Some r -> r | None -> Obs.Registry.create () in
  let module T = (val p.target) in
  let ctx =
    Runtime.make_ctx ~opts ~obs:reg p.prog ~nstmts:p.ctx.Runtime.nstmts
      p.ctx.Runtime.tctx
  in
  ctx.Runtime.extern_hook <- T.extern;
  ctx.Runtime.reject_hook <- T.on_reject;
  ctx.Runtime.next_packet_hook <-
    (fun ctx st -> T.init ctx (Runtime.next_packet ctx ~port_width:T.port_width st));
  let st = Runtime.initial_state ctx ~port_width:T.port_width in
  (ctx, T.init ctx st)

(* phase 1 as a result: every way the front end can reject a program,
   captured as data.  [prepare] keeps raising (reconstructed verbatim
   by [raise_prepare_error]), so existing exception handlers see no
   change.  One throwaway [instantiate] runs the target's [init], so a
   program the target cannot instantiate (an unknown block in the
   package, say) is rejected here rather than by every later request
   that reuses the prepared value. *)
let prepare_result ?opts ?obs target source : (prepared, prepare_error) result =
  match
    let p = prepare ?opts ?obs target source in
    ignore (instantiate ?opts p);
    p
  with
  | p -> Ok p
  | exception P4.Lexer.Error (msg, pos) ->
      Error (Parse_error { msg; line = pos.P4.Ast.line; col = pos.P4.Ast.col })
  | exception P4.Parser.Error (msg, pos) ->
      Error (Parse_error { msg; line = pos.P4.Ast.line; col = pos.P4.Ast.col })
  | exception P4.Typing.Type_error msg -> Error (Type_error msg)
  | exception Runtime.Exec_error msg -> Error (Arch_error msg)

(* route the prepared value's query-cache store into the exploration
   config unless the caller wired one explicitly: repeated runs over
   one prepared program then share SAT/UNSAT slice facts *)
let with_qstore (p : prepared) (config : Explore.config) =
  match config.Explore.qcache_store with
  | Some _ -> config
  | None -> { config with Explore.qcache_store = Some p.qstore }

let generate ?(opts = Runtime.default_options) ?(config = Explore.default_config)
    (target : (module Target_intf.S)) (source : string) : run =
  let p = prepare ~opts target source in
  let st = initial_state p in
  let result = Explore.run ~config:(with_qstore p config) p.ctx st in
  { result; prepared = p }

(* End-to-end generation over an already-prepared program: phase 1 is
   skipped entirely (the warm path of the prepared-oracle cache).
   Because [Runtime.make_ctx] and the target's [init] are
   deterministic, the replica context is structurally identical to the
   one [generate] would have built from the same source and options —
   the test set is bit-identical to a single-shot [generate] with the
   same seed.  The returned run's [prep_time] is 0: this run paid no
   phase-1 cost. *)
let explore_prepared ?(opts = Runtime.default_options)
    ?(config = Explore.default_config) ?obs (p : prepared) : run =
  let ctx, st = instantiate ~opts ?obs p in
  let result = Explore.run ~config:(with_qstore p config) ctx st in
  { result; prepared = { p with ctx; prep_time = 0.0 } }

(* ------------------------------------------------------------------ *)
(* Batch driver: many oracle jobs across OCaml domains.

   Each job owns its term context (created by [prepare]) and its own
   solver stack, so jobs share no mutable term state; the only shared
   structure is the atomic work-queue index that idle domains pull
   from.  A job's result therefore depends only on its own options
   (in particular the seed), never on scheduling — [jobs = 1] and
   [jobs = N] produce identical test sets per job. *)

type job = {
  job_label : string;
  job_target : (module Target_intf.S);
  job_source : string;
  job_opts : Runtime.options;
  job_config : Explore.config;
}

let job ?(opts = Runtime.default_options) ?(config = Explore.default_config)
    ~label target source =
  {
    job_label = label;
    job_target = target;
    job_source = source;
    job_opts = opts;
    job_config = config;
  }

type outcome = Finished of run | Failed of string

type batch = {
  outcomes : (string * outcome) list;  (* in submission order *)
  merged_stats : Explore.stats;
  merged_obs : Obs.Snapshot.t;
  batch_wall : float;
}

let run_job j =
  try Finished (generate ~opts:j.job_opts ~config:j.job_config j.job_target j.job_source)
  with e -> Failed (Printexc.to_string e)

let generate_batch ?(jobs = 1) (js : job list) : batch =
  let t0 = Obs.Clock.now () in
  let arr = Array.of_list js in
  let n = Array.length arr in
  let out = Array.make n (Failed "not run") in
  (* extra domains come out of the shared pool *)
  Explore.Pool.iter jobs n (fun _ i -> out.(i) <- run_job arr.(i));
  (* every job owns its registry (created by its [prepare]), so the
     per-domain snapshots merge associatively with no synchronization;
     the stats record is the same façade projected from the merge *)
  let merged_obs =
    Array.fold_left
      (fun acc o ->
        match o with
        | Finished r -> Obs.Snapshot.merge acc (Obs.Registry.snapshot (registry r))
        | Failed _ -> acc)
      Obs.Snapshot.empty out
  in
  {
    outcomes = Array.to_list (Array.map2 (fun j o -> (j.job_label, o)) arr out);
    merged_stats = Explore.stats_of_snapshot merged_obs;
    merged_obs;
    batch_wall = Obs.Clock.now () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Coverage report (§7, "What exactly do P4Testgen's tests cover?") *)

type coverage_report = {
  covered_count : int;
  total_count : int;
  percentage : float;
  uncovered : int list;  (** statement ids never exercised *)
}

let coverage_report (r : run) : coverage_report =
  let covered = r.result.Explore.covered in
  let total = r.result.Explore.total_stmts in
  let uncovered =
    List.filter (fun i -> not (IntSet.mem i covered)) (List.init total (fun i -> i + 1))
  in
  {
    covered_count = IntSet.cardinal covered;
    total_count = total;
    percentage = Explore.coverage_pct r.result;
    uncovered;
  }

let pp_coverage ppf (c : coverage_report) =
  Format.fprintf ppf "statement coverage: %d/%d (%.1f%%)" c.covered_count c.total_count
    c.percentage;
  if c.uncovered <> [] then
    Format.fprintf ppf "; uncovered ids: %s"
      (String.concat "," (List.map string_of_int c.uncovered))
