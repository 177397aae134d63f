(* The self-validation campaign engine (§7/§8).

   Each case runs a differential pipeline: a well-typed program goes
   through the oracle, its whole test suite executes on the
   independent concrete simulator ({!Sim.Harness}), and any
   disagreement — a failing expectation, a model crash, an oracle
   exception — is a campaign failure.  On a cadence, cases
   additionally check cross-cutting invariants that pass/fail alone
   would miss:

   - seed determinism: regenerating with the same seed yields the
     bit-identical suite;
   - strategy agreement: the Rnd and Dfs exploration orders (the main
     run explores with Cov) also produce suites that pass on the
     model.

   Case programs come from one of two sources.  In *pure-random* mode
   (the PR 5 behavior) every case draws a fresh program from
   {!Progzoo.Randprog}.  In *corpus* mode ([corpus_dir] set) the
   campaign keeps a coverage-guided {!Corpus}: cases whose runs reach
   new oracle coverage keys (canonical statement/path shapes, see
   {!Explore.coverage_keys}) or new feature-tag combinations are
   admitted, and once the corpus is warm most cases are derived by
   {!Mutate}-ing corpus members instead of generating from scratch.
   The corpus persists under [corpus_dir], so campaigns resume and
   accumulate across runs.

   Determinism is load-bearing in both modes.  Pure-random cases run
   in parallel over the process-wide {!Explore.Pool} domain budget,
   with results stored by case index and folded in order, so the
   summary is bit-identical for any [jobs] value.  Corpus mode runs
   *batch-synchronously*: case derivation (which reads and ages the
   corpus) is sequential over a fixed-size batch, evaluation of the
   batch fans out over the pool, and admission folds back in case
   order — the batch size is a config constant independent of [jobs],
   so the corpus evolves identically for any [jobs] value, and the
   corpus + a campaign checkpoint are flushed after every batch so a
   killed campaign resumes at the last batch boundary bit-identically.

   Failures are reduced *after* the parallel phase, sequentially and
   in case order, by {!Reduce} — reduction cost therefore never skews
   the summary, and repros land deterministically. *)

module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Runtime = Testgen.Runtime
module Testspec = Testgen.Testspec
module Randprog = Progzoo.Randprog

type config = {
  cases : int;
  jobs : int;  (** worker domains (1 = sequential) *)
  seed : int;  (** master seed; every case seed derives from it *)
  max_seconds : float option;
      (** wall-clock box: cases not started in time are skipped (the
          summary then reports [skipped > 0] and is only comparable
          across [jobs] values when the box never triggers), and the
          reduction post-pass stops shrinking when the box expires *)
  archs : Randprog.arch list;  (** round-robin per case *)
  max_tests : int;  (** oracle budget per case *)
  fault : Sim.Mutation.fault;  (** seeded simulator fault (campaign
          self-test: [No_fault] for real validation runs) *)
  reduce : bool;  (** shrink failing programs to minimal repros *)
  reduce_limit : int;  (** reduce at most this many failures *)
  out_dir : string option;  (** write repro .p4 files here *)
  sequences : bool;
      (** explore multi-packet test sequences: each case injects 2–3
          packets (derived deterministically from its seed) against one
          persistent model state *)
  corpus_dir : string option;
      (** enable coverage-guided corpus mode, persisting the corpus
          (and the resume checkpoint) under this directory *)
  mutation_ratio : float;
      (** probability that a case is derived by mutating a corpus
          member once the corpus is warm (has reached its minimum
          size); the rest stay from-scratch random *)
  corpus_batch : int;
      (** corpus-mode synchronization interval, in cases.  Must not
          depend on [jobs] (it is what makes jobs-1 ≡ jobs-N hold in
          corpus mode); it is also the checkpoint granularity *)
  interrupt_after : int option;
      (** test hook simulating a killed campaign: stop (checkpointed,
          without the reduction post-pass) at the first batch boundary
          >= this many cases *)
}

let default_config =
  {
    cases = 50;
    jobs = 1;
    seed = 1;
    max_seconds = None;
    archs = Randprog.all_archs;
    max_tests = 12;
    fault = Sim.Mutation.No_fault;
    reduce = true;
    reduce_limit = 3;
    out_dir = None;
    sequences = false;
    corpus_dir = None;
    mutation_ratio = 0.75;
    corpus_batch = 10;
    interrupt_after = None;
  }

type failure = {
  f_case : int;
  f_arch : string;
  f_seed : int;
  f_kind : string;  (** [wrong_output] / [crash] / [oracle_error] / [invariant] *)
  f_detail : string;
  f_source : string;  (** the generated program *)
  f_reduced : Reduce.outcome option;  (** set by the reduction post-pass *)
  f_file : string option;  (** repro path when [out_dir] is set *)
}

type case_result = {
  r_case : int;
  r_arch : string;
  r_seed : int;
  r_tests : int;  (** tests the oracle generated *)
  r_features : string list;
  r_failure : failure option;
  r_skipped : bool;  (** the time box expired before this case started *)
}

type summary = {
  s_config : config;
  s_results : case_result list;  (** in case order *)
  s_failures : failure list;  (** post-reduction, in case order *)
  s_ran : int;
  s_skipped : int;
  s_tests : int;
  s_features : string list;  (** union of generator features exercised *)
  s_wall : float;
  s_obs : Obs.Snapshot.t;  (** merged per-worker registries *)
  s_workers : (string * Obs.Registry.t) list;  (** for trace export *)
  s_cov_keys : int;
      (** distinct oracle coverage keys: this run's in pure-random
          mode, cumulative over the corpus lifetime in corpus mode *)
  s_cov_cases : int;  (** the denominator matching [s_cov_keys] *)
  s_mutated : int;  (** cases derived by mutation in this run *)
  s_corpus : Corpus.t option;  (** final corpus state in corpus mode *)
  s_interrupted : bool;  (** stopped early by [interrupt_after] *)
}

(** Oracle-code coverage per 1000 cases — the campaign's comparable
    coverage metric (distinct canonical coverage keys, normalized by
    evaluated cases). *)
let cov_per_1000 (s : summary) : float =
  if s.s_cov_cases = 0 then 0.0
  else float_of_int s.s_cov_keys *. 1000.0 /. float_of_int s.s_cov_cases

(* deterministic per-case derivation from the master seed *)
let case_seed master i = (((master * 1_000_003) + (i * 7919)) land 0x3FFFFFFF) + 1
let case_arch cfg i = List.nth cfg.archs (i mod List.length cfg.archs)

(* sequence mode: 2–3 packets per test, derived from the case seed so
   the choice is identical for any [jobs] value *)
let case_seq_packets cfg seed = if cfg.sequences then 2 + (seed mod 2) else 1

(* ------------------------------------------------------------------ *)
(* Coverage keys: canonical statement shapes, salted per arch, hashed
   with FNV-1a (NOT [Hashtbl.hash]: these keys persist in the corpus
   file, so they must be stable across runs and OCaml versions). *)

let shape_key ~arch (s : string) : int =
  let h = ref 0x14650FB0739D0383 in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * 0x100000001B3) land max_int)
    (arch ^ "|" ^ s);
  !h

(* ------------------------------------------------------------------ *)
(* One differential run: oracle suite vs. concrete model *)

type pipeline_outcome =
  | All_pass of int  (** number of tests, all passing *)
  | Diff of string * string  (** kind, detail *)

let target_of arch = Option.get (Targets.Registry.find arch)

(* Campaign oracle runs use the coverage-optimal test-selection
   strategy (the paper's CoveredStmts heuristic): the per-case test
   budget is spent only on tests that reach uncovered statements, so
   [result.covered] — the campaign's coverage metric — reflects what
   the budget can reach rather than DFS enumeration order. *)
(* [max_paths] bounds exploration of a single case: once the per-case
   test budget stops being reached (novelty dried up), Cov-mode DFS
   would otherwise walk a heavily-mutated program's whole path tree —
   thousands of paths for a few dozen statements — for nothing. *)
let campaign_explore =
  {
    Explore.default_config with
    Explore.strategy = Explore.Cov;
    Explore.max_paths = Some 384;
  }

(* [obs], when given, absorbs the oracle run's metrics (explorer,
   solver, SAT core, query cache): counters sum, so a campaign's totals
   are the same for any [jobs] *)
let run_pipeline_cov ?(explore = campaign_explore) ?(seq_packets = 1) ?obs ~fault
    ~arch ~seed ~max_tests src : pipeline_outcome * Runtime.IntSet.t =
  let opts = { Runtime.default_options with seed; seq_packets } in
  let config = { explore with Explore.max_tests = Some max_tests } in
  match Oracle.generate ~opts ~config (target_of arch) src with
  | exception e -> (Diff ("oracle_error", Printexc.to_string e), Runtime.IntSet.empty)
  | run -> (
      let result = run.Oracle.result in
      Option.iter (fun reg -> Obs.Registry.absorb reg result.Explore.obs) obs;
      let keys =
        let tbl = Hashtbl.create 256 in
        List.iter
          (fun (sid, shp) -> Hashtbl.replace tbl sid (shape_key ~arch shp))
          (P4.Passes.statement_shapes run.Oracle.prepared.Oracle.prog);
        (* sids without a canonical shape (declarations) collapse to a
           shared key so they can't leak program-local numbering into
           the cross-program key space *)
        Explore.coverage_keys
          ~shape:(fun sid -> Option.value (Hashtbl.find_opt tbl sid) ~default:0)
          result
      in
      let tests = result.Explore.tests in
      match Sim.Harness.prepare ~fault ~seed ~arch src with
      | exception e -> (Diff ("crash", "sim prepare: " ^ Printexc.to_string e), keys)
      | sim -> (
          let _, results = Sim.Harness.run_suite sim tests in
          let first_bad =
            List.find_opt (fun (_, v) -> v <> Sim.Harness.Pass) results
          in
          match first_bad with
          | None -> (All_pass (List.length tests), keys)
          | Some (t, Sim.Harness.Wrong_output msg) ->
              (Diff ("wrong_output", msg ^ "\n" ^ Testspec.to_string t), keys)
          | Some (t, Sim.Harness.Crash msg) ->
              (Diff ("crash", msg ^ "\n" ^ Testspec.to_string t), keys)
          | Some (_, Sim.Harness.Pass) -> assert false))

let run_pipeline ?explore ?seq_packets ~fault ~arch ~seed ~max_tests src :
    pipeline_outcome =
  fst (run_pipeline_cov ?explore ?seq_packets ~fault ~arch ~seed ~max_tests src)

let suite_fingerprint tests = String.concat "\n--\n" (List.map Testspec.to_string tests)

(* the cadenced cross-cutting invariants; [None] = all hold.  Every
   run keeps the campaign's path cap: [max_tests] alone does not bound
   a run whose paths end tainted, since a taint-dropped path is not a
   test.  [obs], when given, absorbs every invariant run's metrics. *)
let check_invariants ?obs ~arch ~seed ~max_tests ~seq_packets ~(i : int) src :
    (string * string) option =
  let opts = { Runtime.default_options with seed; seq_packets } in
  let gen config =
    let result = (Oracle.generate ~opts ~config (target_of arch) src).Oracle.result in
    Option.iter (fun reg -> Obs.Registry.absorb reg result.Explore.obs) obs;
    result.Explore.tests
  in
  let base_cfg =
    {
      Explore.default_config with
      Explore.max_tests = Some max_tests;
      max_paths = campaign_explore.Explore.max_paths;
    }
  in
  let checks = ref [] in
  if i mod 5 = 0 then
    checks :=
      ( "seed determinism",
        fun () ->
          let a = gen base_cfg and b = gen base_cfg in
          if suite_fingerprint a <> suite_fingerprint b then
            Some "same seed produced two different suites"
          else None )
      :: !checks;
  if i mod 3 = 0 then begin
    let strategy_check name strat =
      ( Printf.sprintf "%s strategy validates" name,
        fun () ->
          match
            run_pipeline_cov
              (* keep the campaign's path cap: without it a heavily
                 mutated program's full path tree is walked once its
                 novelty dries up *)
              ~explore:{ campaign_explore with Explore.strategy = strat }
              ~seq_packets ?obs ~fault:Sim.Mutation.No_fault ~arch ~seed ~max_tests src
          with
          | All_pass _, _ -> None
          | Diff (kind, detail), _ -> Some (kind ^ ": " ^ detail) )
    in
    checks := strategy_check "Rnd" Explore.Rnd :: !checks;
    if i mod 6 = 0 then checks := strategy_check "Dfs" Explore.Dfs :: !checks
  end;
  List.fold_left
    (fun acc (name, check) ->
      match acc with
      | Some _ -> acc
      | None -> ( match check () with Some d -> Some (name, d) | None -> None))
    None (List.rev !checks)

(* ------------------------------------------------------------------ *)
(* Case evaluation (shared by both drivers) *)

let eval_case cfg (reg : Obs.Registry.t) ~(i : int) ~(seed : int)
    ~(arch_name : string) ~(src : string) ~(features : string list) :
    case_result * Runtime.IntSet.t =
  let fail kind detail =
    {
      f_case = i;
      f_arch = arch_name;
      f_seed = seed;
      f_kind = kind;
      f_detail = detail;
      f_source = src;
      f_reduced = None;
      f_file = None;
    }
  in
  let mk failure tests =
    {
      r_case = i;
      r_arch = arch_name;
      r_seed = seed;
      r_tests = tests;
      r_features = features;
      r_failure = failure;
      r_skipped = false;
    }
  in
  Obs.Counter.incr (Obs.Registry.counter reg "selftest.cases");
  let seq_packets = case_seq_packets cfg seed in
  if cfg.sequences then
    Obs.Counter.incr (Obs.Registry.counter reg "selftest.sequence_cases");
  let t = Obs.Registry.timer reg "selftest.case_time" in
  Obs.Timer.time t (fun () ->
      match
        run_pipeline_cov ~seq_packets ~obs:reg ~fault:cfg.fault ~arch:arch_name
          ~seed ~max_tests:cfg.max_tests src
      with
      | Diff (kind, detail), keys ->
          Obs.Counter.incr (Obs.Registry.counter reg "selftest.failures");
          (mk (Some (fail kind detail)) 0, keys)
      | All_pass n, keys -> (
          Obs.Counter.add (Obs.Registry.counter reg "selftest.tests") n;
          (* invariants only make sense on a program that validates; a
             seeded fault intentionally breaks differential runs, so
             skip them then *)
          if cfg.fault <> Sim.Mutation.No_fault then (mk None n, keys)
          else
            match
              check_invariants ~arch:arch_name ~seed ~max_tests:cfg.max_tests
                ~seq_packets ~i src
            with
            | Some (name, detail) ->
                Obs.Counter.incr (Obs.Registry.counter reg "selftest.failures");
                Obs.Counter.incr (Obs.Registry.counter reg "selftest.invariant_failures");
                (mk (Some (fail "invariant" (name ^ ": " ^ detail))) n, keys)
            | None -> (mk None n, keys)))

let skipped_result cfg i =
  {
    r_case = i;
    r_arch = Randprog.arch_name (case_arch cfg i);
    r_seed = case_seed cfg.seed i;
    r_tests = 0;
    r_features = [];
    r_failure = None;
    r_skipped = true;
  }

(* ------------------------------------------------------------------ *)
(* Reduction post-pass *)

let reduce_failure ?deadline cfg (reg : Obs.Registry.t) (f : failure) : failure =
  (* "still fails the same way": same kind, under the same seed/fault
     (and the same sequence length, re-derived from the case seed) *)
  let seq_packets = case_seq_packets cfg f.f_seed in
  let keep src =
    match
      run_pipeline ~seq_packets ~fault:cfg.fault ~arch:f.f_arch ~seed:f.f_seed
        ~max_tests:cfg.max_tests src
    with
    | Diff (kind, _) -> kind = f.f_kind
    | All_pass _ -> false
  in
  if f.f_kind = "invariant" then f  (* invariant breaks rarely survive shrinking *)
  else begin
    (* candidate programs legitimately break (dangling action names,
       dead states): the oracle's per-path warnings are noise here *)
    let saved = Logs.level () in
    Logs.set_level (Some Logs.Error);
    let outcome =
      Fun.protect
        ~finally:(fun () -> Logs.set_level saved)
        (fun () -> Reduce.reduce ?deadline ~keep f.f_source)
    in
    Obs.Counter.add (Obs.Registry.counter reg "selftest.reduce_steps") outcome.Reduce.steps;
    Obs.Counter.incr (Obs.Registry.counter reg "selftest.reduced");
    { f with f_reduced = Some outcome }
  end

let write_repro cfg (f : failure) : failure =
  match cfg.out_dir with
  | None -> f
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let file = Filename.concat dir (Printf.sprintf "case%04d_%s.p4" f.f_case f.f_arch) in
      let oc = open_out file in
      let body =
        match f.f_reduced with Some r -> r.Reduce.reduced | None -> f.f_source
      in
      Printf.fprintf oc "// arch: %s\n// seed: %d\n// case: %d  kind: %s\n" f.f_arch
        f.f_seed f.f_case f.f_kind;
      (* the regression corpus replays a repro with this many packets *)
      if cfg.sequences then
        Printf.fprintf oc "// seq-packets: %d\n" (case_seq_packets cfg f.f_seed);
      (match cfg.fault with
      | Sim.Mutation.No_fault -> ()
      | fault -> Printf.fprintf oc "// fault: %s\n" (Sim.Mutation.fault_name fault));
      List.iter
        (fun l -> Printf.fprintf oc "// detail: %s\n" l)
        (String.split_on_char '\n' f.f_detail |> List.filteri (fun i _ -> i < 3));
      output_string oc body;
      if body = "" || body.[String.length body - 1] <> '\n' then output_char oc '\n';
      close_out oc;
      { f with f_file = Some file }

(* sequential, case-ordered reduction + repro pass; the campaign
   deadline (already consumed by generation) also bounds shrinking,
   so a late failure cannot blow the overall time box *)
let post_process ?deadline cfg (main_reg : Obs.Registry.t)
    (results : case_result list) : case_result list =
  let reduced = ref 0 in
  List.map
    (fun r ->
      match r.r_failure with
      | Some f ->
          let f =
            if cfg.reduce && !reduced < cfg.reduce_limit then begin
              incr reduced;
              reduce_failure ?deadline cfg main_reg f
            end
            else f
          in
          let f = write_repro cfg f in
          { r with r_failure = Some f }
      | None -> r)
    results

(* ------------------------------------------------------------------ *)
(* Summary assembly *)

let merge_workers worker_regs =
  Array.fold_left
    (fun acc reg -> Obs.Snapshot.merge acc (Obs.Registry.snapshot reg))
    Obs.Snapshot.empty worker_regs

let assemble cfg ~t0 ~worker_regs ~results ~cov_keys ~cov_cases ~mutated ~corpus
    ~interrupted : summary =
  let failures = List.filter_map (fun r -> r.r_failure) results in
  let features =
    List.sort_uniq compare (List.concat_map (fun r -> r.r_features) results)
  in
  {
    s_config = cfg;
    s_results = results;
    s_failures = failures;
    s_ran = List.length (List.filter (fun r -> not r.r_skipped) results);
    s_skipped = List.length (List.filter (fun r -> r.r_skipped) results);
    s_tests = List.fold_left (fun a r -> a + r.r_tests) 0 results;
    s_features = features;
    s_wall = Obs.Clock.now () -. t0;
    s_obs = merge_workers worker_regs;
    s_workers =
      Array.to_list
        (Array.mapi (fun i r -> (Printf.sprintf "selftest-w%d" i, r)) worker_regs);
    s_cov_keys = cov_keys;
    s_cov_cases = cov_cases;
    s_mutated = mutated;
    s_corpus = corpus;
    s_interrupted = interrupted;
  }

(* ------------------------------------------------------------------ *)
(* The pure-random parallel driver (PR 5 shape, plus coverage keys) *)

let run_random (cfg : config) : summary =
  let t0 = Obs.Clock.now () in
  let deadline = Option.map (fun s -> t0 +. s) cfg.max_seconds in
  let n = cfg.cases in
  let out = Array.make n None in
  let worker_regs =
    Array.init (max 1 cfg.jobs) (fun _ -> Obs.Registry.create ~record_spans:true ())
  in
  Explore.Pool.iter cfg.jobs n (fun wid i ->
      let reg = worker_regs.(wid) in
      let skipped =
        match deadline with Some d -> Obs.Clock.now () > d | None -> false
      in
      out.(i) <-
        (if skipped then Some (skipped_result cfg i, Runtime.IntSet.empty)
         else begin
           let seed = case_seed cfg.seed i in
           let arch = case_arch cfg i in
           let gen = Randprog.generate_for ~arch ~seed in
           let span = Obs.Span.enter reg ~args:[ ("case", string_of_int i) ] "case" in
           let r =
             eval_case cfg reg ~i ~seed ~arch_name:(Randprog.arch_name arch)
               ~src:gen.Randprog.src ~features:gen.Randprog.features
           in
           Obs.Span.exit reg span;
           Some r
         end));
  let pairs = Array.to_list out |> List.filter_map Fun.id in
  (* in-order fold: the key set is a union, so it is order-independent
     anyway, but folding by case index keeps the discipline visible *)
  let cov =
    List.fold_left
      (fun acc (r, keys) ->
        if r.r_failure = None && not r.r_skipped then Runtime.IntSet.union acc keys
        else acc)
      Runtime.IntSet.empty pairs
  in
  let results = post_process ?deadline cfg worker_regs.(0) (List.map fst pairs) in
  let ran = List.length (List.filter (fun r -> not r.r_skipped) results) in
  assemble cfg ~t0 ~worker_regs ~results ~cov_keys:(Runtime.IntSet.cardinal cov)
    ~cov_cases:ran ~mutated:0 ~corpus:None ~interrupted:false

(* ------------------------------------------------------------------ *)
(* Corpus mode: case derivation *)

type derivation =
  | Skip of case_result
  | Eval of {
      d_seed : int;
      d_arch : string;
      d_src : string;
      d_features : string list;
      d_mutant : bool;
    }

(* Derivation is the only phase that reads (and ages) the corpus, so
   it runs sequentially at batch boundaries; everything it consumes —
   the corpus state and a per-case rng — is deterministic in (master
   seed, case index, corpus state), which the batch discipline keeps
   identical for any [jobs]. *)
let derive_case cfg (corpus : Corpus.t) ~deadline (i : int) : derivation =
  let seed = case_seed cfg.seed i in
  let expired =
    match deadline with Some d -> Obs.Clock.now () > d | None -> false
  in
  if expired then Skip (skipped_result cfg i)
  else begin
    let rng = Random.State.make [| seed; 0xC0FFEE |] in
    let arch_names = List.map Randprog.arch_name cfg.archs in
    let bases =
      List.filter (fun e -> List.mem e.Corpus.arch arch_names) (Corpus.entries corpus)
    in
    let fresh () =
      let arch = case_arch cfg i in
      let gen = Randprog.generate_for ~arch ~seed in
      Eval
        {
          d_seed = seed;
          d_arch = Randprog.arch_name arch;
          d_src = gen.Randprog.src;
          d_features = gen.Randprog.features;
          d_mutant = false;
        }
    in
    let warm = List.length bases >= corpus.Corpus.min_size in
    if not (warm && Random.State.float rng 1.0 < cfg.mutation_ratio) then fresh ()
    else begin
      (* a mutant must parse, type, and fit both the oracle and the
         simulator *before* it spends a case budget; anything else is
         discarded and a few more attempts are made (structured
         prepare failures are the expected mutator fallout — an
         exception from [prepare_result] would be a real bug, and the
         QCheck property in the test suite hunts for those) *)
      let validate arch src =
        match Oracle.prepare_result (target_of arch) src with
        | Ok _ -> (
            match Sim.Harness.prepare ~fault:cfg.fault ~seed ~arch src with
            | _ -> true
            | exception _ -> false)
        | Error _ -> false
        | exception _ -> false
      in
      let rec attempt k =
        if k >= 3 then fresh ()
        else begin
          let base = List.nth bases (Random.State.int rng (List.length bases)) in
          let donor =
            match
              List.filter
                (fun e -> e.Corpus.id <> base.Corpus.id && e.Corpus.arch = base.Corpus.arch)
                bases
            with
            | [] -> None
            | ds -> Some (List.nth ds (Random.State.int rng (List.length ds))).Corpus.src
          in
          match Mutate.mutate ~seed:((seed * 31) + k) ?donor base.Corpus.src with
          | None -> attempt (k + 1)
          | Some m when not (validate base.Corpus.arch m.Mutate.m_src) -> attempt (k + 1)
          | Some m ->
              Corpus.note_mutation corpus ~id:base.Corpus.id;
              if List.exists (String.starts_with ~prefix:"splice_") m.Mutate.m_ops then
                Corpus.note_splice corpus;
              let features =
                match P4.Parser.parse_program m.Mutate.m_src with
                | p -> Randprog.tags_of_program p
                | exception _ -> []
              in
              Eval
                {
                  d_seed = seed;
                  d_arch = base.Corpus.arch;
                  d_src = m.Mutate.m_src;
                  d_features = features;
                  d_mutant = true;
                }
        end
      in
      attempt 0
    end
  end

(* ------------------------------------------------------------------ *)
(* Corpus mode: resume checkpoint.

   [corpus_dir]/campaign.ck records the completed prefix of a
   campaign, flushed after every batch alongside the corpus itself.
   A checkpoint only resumes a campaign with the *same* semantic
   config (digest below; [jobs]/[out_dir]/reduction knobs are
   excluded — they don't affect case results); a completed or
   mismatching checkpoint is ignored, so re-running a finished
   campaign starts a fresh one that accumulates onto the corpus. *)

let ck_magic = "p4tg-campaign-v1"

let ck_path dir = Filename.concat dir "campaign.ck"

let config_digest cfg =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            string_of_int cfg.cases;
            string_of_int cfg.seed;
            String.concat "," (List.map Randprog.arch_name cfg.archs);
            string_of_int cfg.max_tests;
            Sim.Mutation.fault_name cfg.fault;
            string_of_bool cfg.sequences;
            Printf.sprintf "%.4f" cfg.mutation_ratio;
            string_of_int cfg.corpus_batch;
          ]))

let save_checkpoint dir cfg ~done_ (results : case_result list) =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf (ck_magic ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "config %s cases %d done %d\n" (config_digest cfg) cfg.cases done_);
  List.iter
    (fun r ->
      (match r.r_failure with
      | None ->
          Buffer.add_string buf
            (Printf.sprintf "case i=%d arch=%s seed=%d tests=%d skipped=%d features=%s fail=0\n"
               r.r_case r.r_arch r.r_seed r.r_tests
               (if r.r_skipped then 1 else 0)
               (String.concat "," r.r_features))
      | Some f ->
          Buffer.add_string buf
            (Printf.sprintf
               "case i=%d arch=%s seed=%d tests=%d skipped=%d features=%s fail=1 kind=%s detail_bytes=%d src_bytes=%d\n"
               r.r_case r.r_arch r.r_seed r.r_tests
               (if r.r_skipped then 1 else 0)
               (String.concat "," r.r_features)
               f.f_kind (String.length f.f_detail) (String.length f.f_source));
          Buffer.add_string buf f.f_detail;
          Buffer.add_char buf '\n';
          Buffer.add_string buf f.f_source;
          Buffer.add_char buf '\n'))
    results;
  let tmp = ck_path dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc buf;
  close_out oc;
  Sys.rename tmp (ck_path dir)

let load_checkpoint dir cfg : (case_result list * int) option =
  let file = ck_path dir in
  if not (Sys.file_exists file) then None
  else
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          if input_line ic <> ck_magic then None
          else
            match String.split_on_char ' ' (input_line ic) with
            | [ "config"; digest; "cases"; cases; "done"; done_ ] ->
                let cases = int_of_string cases and done_ = int_of_string done_ in
                if digest <> config_digest cfg || cases <> cfg.cases || done_ >= cases
                then None
                else begin
                  let results = ref [] in
                  for _ = 1 to done_ do
                    let kvs =
                      match String.split_on_char ' ' (input_line ic) with
                      | "case" :: rest ->
                          List.map
                            (fun tok ->
                              match String.index_opt tok '=' with
                              | Some j ->
                                  ( String.sub tok 0 j,
                                    String.sub tok (j + 1) (String.length tok - j - 1) )
                              | None -> raise Exit)
                            rest
                      | _ -> raise Exit
                    in
                    let geti k = int_of_string (List.assoc k kvs) in
                    let gets k = List.assoc k kvs in
                    let blob n =
                      let s = really_input_string ic n in
                      (match input_char ic with '\n' -> () | _ -> raise Exit);
                      s
                    in
                    let failure =
                      if geti "fail" = 0 then None
                      else
                        let detail = blob (geti "detail_bytes") in
                        let source = blob (geti "src_bytes") in
                        Some
                          {
                            f_case = geti "i";
                            f_arch = gets "arch";
                            f_seed = geti "seed";
                            f_kind = gets "kind";
                            f_detail = detail;
                            f_source = source;
                            f_reduced = None;
                            f_file = None;
                          }
                    in
                    (* blobs read above before the record is built *)
                    results :=
                      {
                        r_case = geti "i";
                        r_arch = gets "arch";
                        r_seed = geti "seed";
                        r_tests = geti "tests";
                        r_features =
                          (match gets "features" with
                          | "" -> []
                          | s -> String.split_on_char ',' s);
                        r_failure = failure;
                        r_skipped = geti "skipped" = 1;
                      }
                      :: !results
                  done;
                  Some (List.rev !results, done_)
                end
            | _ -> None
        with
        | End_of_file | Exit | Not_found | Failure _ -> None)

(* ------------------------------------------------------------------ *)
(* The corpus-mode driver: batch-synchronous evolve/evaluate loop *)

let run_corpus (cfg : config) (dir : string) : summary =
  let t0 = Obs.Clock.now () in
  let deadline = Option.map (fun s -> t0 +. s) cfg.max_seconds in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let corpus =
    match Corpus.load dir with Some c -> c | None -> Corpus.create ()
  in
  (* obs mirrors report this run's activity as deltas over the loaded
     (cumulative) corpus counters *)
  let admits0 = corpus.Corpus.admits
  and evict0 = corpus.Corpus.evictions
  and novelty0 = corpus.Corpus.coverage_novelty
  and mut0 = corpus.Corpus.mutations_total
  and splice0 = corpus.Corpus.splice_sources in
  let n = cfg.cases in
  let out = Array.make n None in
  let restored, start =
    match load_checkpoint dir cfg with Some (rs, k) -> (rs, k) | None -> ([], 0)
  in
  List.iter (fun r -> if r.r_case < n then out.(r.r_case) <- Some r) restored;
  let worker_regs =
    Array.init (max 1 cfg.jobs) (fun _ -> Obs.Registry.create ~record_spans:true ())
  in
  let main_reg = worker_regs.(0) in
  let batch = max 1 cfg.corpus_batch in
  let mutated = ref 0 in
  let interrupted = ref false in
  let b = ref start in
  while !b < n && not !interrupted do
    (* batch boundaries sit at fixed multiples of [corpus_batch], so a
       resumed campaign re-enters exactly where the checkpoint left *)
    let b0 = !b in
    let b1 = min n (b0 + batch - (b0 mod batch)) in
    let m = b1 - b0 in
    (* phase A — sequential derivation (reads + ages the corpus) *)
    let derivs = Array.init m (fun k -> derive_case cfg corpus ~deadline (b0 + k)) in
    (* phase B — parallel evaluation (pure w.r.t. the corpus); the
       pool's tokens are held for this phase only *)
    let keys = Array.make m Runtime.IntSet.empty in
    Explore.Pool.iter cfg.jobs m (fun wid k ->
        match derivs.(k) with
        | Skip r -> out.(b0 + k) <- Some r
        | Eval d ->
            let reg = worker_regs.(wid) in
            let i = b0 + k in
            let span = Obs.Span.enter reg ~args:[ ("case", string_of_int i) ] "case" in
            let r, ks =
              eval_case cfg reg ~i ~seed:d.d_seed ~arch_name:d.d_arch ~src:d.d_src
                ~features:d.d_features
            in
            Obs.Span.exit reg span;
            keys.(k) <- ks;
            out.(i) <- Some r);
    (* phase C — sequential in-order fold: admission + counters *)
    for k = 0 to m - 1 do
      match (derivs.(k), out.(b0 + k)) with
      | Eval d, Some r ->
          if d.d_mutant then incr mutated;
          if
            r.r_failure = None && not r.r_skipped
            && cfg.fault = Sim.Mutation.No_fault
          then begin
            let ks = Corpus.ISet.of_list (Runtime.IntSet.elements keys.(k)) in
            ignore
              (Corpus.observe corpus ~src:d.d_src ~arch:d.d_arch ~tags:d.d_features
                 ~keys:ks)
          end
      | _ -> ()
    done;
    (* checkpoint: corpus first, then the campaign prefix *)
    Corpus.save corpus dir;
    let prefix =
      List.init b1 (fun i -> out.(i)) |> List.filter_map Fun.id
    in
    save_checkpoint dir cfg ~done_:b1 prefix;
    (match cfg.interrupt_after with
    | Some k when b1 >= k -> interrupted := true
    | _ -> ());
    b := b1
  done;
  Obs.Counter.add (Obs.Registry.counter main_reg "corpus.admits")
    (corpus.Corpus.admits - admits0);
  Obs.Counter.add (Obs.Registry.counter main_reg "corpus.evictions")
    (corpus.Corpus.evictions - evict0);
  Obs.Counter.add (Obs.Registry.counter main_reg "corpus.coverage_novelty")
    (corpus.Corpus.coverage_novelty - novelty0);
  Obs.Counter.add (Obs.Registry.counter main_reg "corpus.mutations")
    (corpus.Corpus.mutations_total - mut0);
  Obs.Counter.add (Obs.Registry.counter main_reg "corpus.splice_sources")
    (corpus.Corpus.splice_sources - splice0);
  let results = Array.to_list out |> List.filter_map Fun.id in
  let results =
    if !interrupted then results
    else begin
      (* campaign complete: the checkpoint is consumed (a re-run with
         the same config starts fresh and accumulates on the corpus) *)
      if Sys.file_exists (ck_path dir) then Sys.remove (ck_path dir);
      post_process ?deadline cfg main_reg results
    end
  in
  assemble cfg ~t0 ~worker_regs ~results
    ~cov_keys:(Corpus.ISet.cardinal corpus.Corpus.seen)
    ~cov_cases:corpus.Corpus.cases_seen ~mutated:!mutated ~corpus:(Some corpus)
    ~interrupted:!interrupted

(* ------------------------------------------------------------------ *)
(* Entry point *)

let run (cfg : config) : summary =
  match cfg.corpus_dir with
  | Some dir -> run_corpus cfg dir
  | None -> run_random cfg

(* ------------------------------------------------------------------ *)
(* Reporting *)

(** The canonical scheduling-independent summary: everything except
    wall-clock.  [jobs=1] and [jobs=N] must render identically, and a
    killed+resumed corpus campaign must render identically to an
    uninterrupted one. *)
let summary_line (s : summary) : string =
  let base =
    Printf.sprintf
      "cases=%d ran=%d skipped=%d failures=%d tests=%d features=%d/%d cov1000=%.1f"
      s.s_config.cases s.s_ran s.s_skipped (List.length s.s_failures) s.s_tests
      (List.length s.s_features)
      (List.length Randprog.feature_universe)
      (cov_per_1000 s)
  in
  match s.s_corpus with
  | None -> base
  | Some c ->
      base
      ^ Printf.sprintf " corpus=%d admits=%d evict=%d mut=%d splice=%d"
          (Corpus.size c) c.Corpus.admits c.Corpus.evictions
          c.Corpus.mutations_total c.Corpus.splice_sources

let pp_summary ppf (s : summary) =
  Format.fprintf ppf "selftest: %s (%.2fs)@." (summary_line s) s.s_wall;
  if s.s_interrupted then
    Format.fprintf ppf "  interrupted (checkpoint kept; re-run to resume)@.";
  List.iter
    (fun f ->
      Format.fprintf ppf "  FAIL case %d (%s, seed %d): %s@." f.f_case f.f_arch f.f_seed
        f.f_kind;
      (match String.split_on_char '\n' f.f_detail with
      | first :: _ -> Format.fprintf ppf "    %s@." first
      | [] -> ());
      (match f.f_reduced with
      | Some r ->
          Format.fprintf ppf "    reduced: %d lines (%d edits, %d rounds)@."
            (Reduce.line_count r.Reduce.reduced)
            r.Reduce.steps r.Reduce.rounds
      | None -> ());
      match f.f_file with
      | Some file -> Format.fprintf ppf "    repro: %s@." file
      | None -> ())
    s.s_failures
