(* Top-level test-oracle API: everything from P4 source to tests.

   Mirrors the three-phase workflow of §4:
   1. parse + prelude + mid-end passes ([prepare]),
   2. the target's pipeline template instantiated over a fresh run
      context ([instantiate]) and explored symbolically over
      whole-program semantics ([Explore.run]),
   3. abstract test specifications ([Testspec.t]) that back ends
      concretize. *)

open Runtime

(* phase 1's output and nothing of any run: no term context, no
   registry, no options *)
type prepared = {
  prog : P4.Ast.program;
  tctx : P4.Typing.ctx;
  nstmts : int;
  target : (module Target_intf.S);
  prep_time : float;
  qstore : Smt.Qcache.store;
}

(* ------------------------------------------------------------------ *)
(* Structured preparation errors.

   The raising [prepare] below is the historical entry point (the CLI
   keys its exit behavior on the exception constructors); a long-lived
   caller — the serve daemon — needs the same failures as data so one
   bad program fails one request instead of the process
   ([prepare_result]). *)

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

(* ------------------------------------------------------------------ *)
(* Program fingerprints: the cache key of the prepared-oracle cache.

   The key digests the *token stream* of the source (so whitespace and
   comments cannot cause a miss), the architecture name (the prelude is
   part of what [prepare] compiles), and a format version.  The mid-end
   passes are options-independent today — [Runtime.options] only
   steers exploration — so no option joins the hash; if a pass ever
   starts reading an option, that field must be appended here and the
   version bumped, or stale prepared values would be served. *)

(* fp3: the prepared value holds only phase 1's output (program,
   typing context, statement count) and the query-cache store, no run
   context — payloads from fp2 builds are not equivalent, so the
   version bumps (see DESIGN.md, "Fingerprint versioning") *)
let fingerprint_version = "p4tg-fp3"

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

(* [opts] is accepted and ignored: the mid-end reads no option (see
   [fingerprint]); the options a run explores with go to
   [instantiate]. *)
let prepare ?opts:_ ?obs (target : (module Target_intf.S)) (source : string) : prepared =
  let module T = (val target) in
  (* the caller's registry observes the front-end phases; the prepared
     value keeps no reference to it *)
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let t0 = Obs.Clock.now () in
  let sp = Obs.Span.enter obs "prepare" in
  let prelude, user =
    Obs.Span.with_ obs "parse" (fun () ->
        (P4.Parser.parse_program T.prelude, P4.Parser.parse_program source))
  in
  let prog, tctx, nstmts =
    Obs.Span.with_ obs "passes" (fun () -> P4.Passes.prepare (prelude @ user))
  in
  Obs.Span.exit obs sp;
  let prep_time = Obs.Clock.now () -. t0 in
  Obs.Timer.add (Obs.Registry.timer obs "oracle.prep_time") prep_time;
  { prog; tctx; nstmts; target; prep_time; qstore = Smt.Qcache.create_store () }

type run = { result : Explore.result; prepared : prepared; obs : Obs.Registry.t }

let registry (r : run) = r.obs

(* [instantiate]: phase 2, the only place a run context is built — a
   fresh term context and the caller's registry over the prepared
   (immutable, already passed) program, with the target's hooks and
   its pipeline template.  Options are the run's own: a prepared value
   serves runs with any seed, strategy or budget, because the mid-end
   artifacts do not depend on them (see [fingerprint]). *)
let instantiate ?(opts = Runtime.default_options) ?obs (p : prepared) :
    Runtime.ctx * Runtime.state =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let module T = (val p.target) in
  let ctx =
    Runtime.make_ctx ~opts ~obs ~extern:T.extern ~on_reject:T.on_reject
      (* sequence boundary: archive the finished packet, then let the
         target re-initialise its intrinsic metadata for the next one,
         so extern state (registers, counters, meters) persists while
         per-packet state starts fresh *)
      ~next_packet:(fun ctx st ->
        T.init ctx (Runtime.next_packet ctx ~port_width:T.port_width st))
      p.prog ~nstmts:p.nstmts p.tctx
  in
  (ctx, T.init ctx (Runtime.initial_state ctx ~port_width:T.port_width))

(* phase 1 as a result: every way the front end can reject a program,
   captured as data.  One throwaway [instantiate] runs the target's
   [init], so a program the target cannot instantiate (an unknown
   block in the package, say) is rejected here rather than by every
   later request that reuses the prepared value. *)
let prepare_result ?obs target source : (prepared, prepare_error) result =
  match
    let p = prepare ?obs target source in
    ignore (instantiate p);
    p
  with
  | p -> Ok p
  | exception P4.Lexer.Error (msg, pos) ->
      Error (Parse_error { msg; line = pos.P4.Ast.line; col = pos.P4.Ast.col })
  | exception P4.Parser.Error (msg, pos) ->
      Error (Parse_error { msg; line = pos.P4.Ast.line; col = pos.P4.Ast.col })
  | exception P4.Typing.Type_error msg -> Error (Type_error msg)
  | exception Runtime.Exec_error msg -> Error (Arch_error msg)

(* Phases 2 and 3 over an already-prepared program: the warm path of
   the prepared-oracle cache, and the second half of [generate].  Runs
   over one prepared value share its query-cache store.  The returned
   run's [prep_time] is 0: this run paid no phase-1 cost. *)
let explore_prepared ?opts ?config ?obs (p : prepared) : run =
  let obs = match obs with Some r -> r | None -> Obs.Registry.create () in
  let ctx, st = instantiate ?opts ~obs p in
  let result = Explore.run ?config ~store:p.qstore ctx st in
  { result; prepared = { p with prep_time = 0.0 }; obs }

(* prepare, then explore, both reporting into one registry; the run
   keeps the prepared value with its real [prep_time] *)
let generate ?opts ?config (target : (module Target_intf.S)) (source : string) : run =
  let obs = Obs.Registry.create () in
  let p = prepare ~obs target source in
  { (explore_prepared ?opts ?config ~obs p) with prepared = p }

(* ------------------------------------------------------------------ *)
(* Batch driver: many oracle jobs across OCaml domains.

   Each job owns its term context (created by its [instantiate]) and
   its own solver stack, so jobs share no mutable term state; the only
   shared structure is the atomic work-queue index that idle domains
   pull from.  A job's result therefore depends only on its own options
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
  (* every job owns its registry (created by its [generate]), so the
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
