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

   Every case draws a fresh program from {!Progzoo.Randprog}, seeded
   by the master seed and the case index.  Cases run in parallel over
   the process-wide {!Explore.Pool} domain budget, with results stored
   by case index and folded in order, so the summary is bit-identical
   for any [jobs] value.

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
  s_cov_keys : int;  (** distinct coverage keys over the passing cases *)
}

(** Distinct coverage keys per 1000 cases run (see {!coverage_keys}). *)
let cov_per_1000 (s : summary) : float =
  if s.s_ran = 0 then 0.0
  else float_of_int s.s_cov_keys *. 1000.0 /. float_of_int s.s_ran

(* deterministic per-case derivation from the master seed *)
let case_seed master i = (((master * 1_000_003) + (i * 7919)) land 0x3FFFFFFF) + 1
let case_arch cfg i = List.nth cfg.archs (i mod List.length cfg.archs)

(* sequence mode: 2–3 packets per test, derived from the case seed so
   the choice is identical for any [jobs] value *)
let case_seq_packets cfg seed = if cfg.sequences then 2 + (seed mod 2) else 1

(* ------------------------------------------------------------------ *)
(* Coverage keys: one per covered statement's canonical shape
   ({!P4.Passes.statement_shapes}), salted per arch and hashed with
   FNV-1a, not [Hashtbl.hash], so that cov1000 stays comparable across
   runs and OCaml versions.  A shape embeds its branch context
   ("/if(cond).t" vs ".e"), so covering a new if-arm is a new key.

   Shape keys do not saturate: every random program mints new ones, and
   the distinct count grows linearly with the cases run (11,364 keys
   after 1,395 cases and 22,791 after 2,845 at seed 7).  So cov1000
   measures how varied a campaign's covered statements are, program by
   program, not how much of the oracle's own code the campaign reaches.
   Keys come only from [result.covered], which is bit-identical across
   cache settings, so the key set is too. *)

let shape_key ~arch (s : string) : int =
  let h = ref 0x14650FB0739D0383 in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * 0x100000001B3) land max_int)
    (arch ^ "|" ^ s);
  !h

let coverage_keys ~arch (prog : P4.Ast.program) (covered : Runtime.IntSet.t) :
    Runtime.IntSet.t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (sid, shp) -> Hashtbl.replace tbl sid (shape_key ~arch shp))
    (P4.Passes.statement_shapes prog);
  (* sids without a canonical shape (declarations) collapse to a shared
     key so they can't leak program-local numbering into the
     cross-program key space *)
  Runtime.IntSet.fold
    (fun sid acc -> Runtime.IntSet.add (Option.value (Hashtbl.find_opt tbl sid) ~default:0) acc)
    covered Runtime.IntSet.empty

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
(* [max_paths] bounds exploration of a single case: [max_tests] alone
   does not, since a path whose output is tainted is walked to its end
   and dropped without counting as a test, so a program whose paths
   mostly end tainted would otherwise walk its whole path tree *)
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
        coverage_keys ~arch run.Oracle.prepared.Oracle.prog result.Explore.covered
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
(* Case evaluation *)

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
  (* the invariant runs report under "invariant.", so that [explore.*]
     and the other oracle metrics keep meaning the main run *)
  let invariants () =
    let inv = Obs.Registry.create ~record_spans:false () in
    let verdict =
      check_invariants ~obs:inv ~arch:arch_name ~seed ~max_tests:cfg.max_tests ~seq_packets
        ~i src
    in
    Obs.Registry.absorb reg (Obs.Snapshot.prefix "invariant." (Obs.Registry.snapshot inv));
    verdict
  in
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
            match invariants () with
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
(* The driver *)

let merge_workers worker_regs =
  Array.fold_left
    (fun acc reg -> Obs.Snapshot.merge acc (Obs.Registry.snapshot reg))
    Obs.Snapshot.empty worker_regs

let run (cfg : config) : summary =
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
  {
    s_config = cfg;
    s_results = results;
    s_failures = List.filter_map (fun r -> r.r_failure) results;
    s_ran = List.length (List.filter (fun r -> not r.r_skipped) results);
    s_skipped = List.length (List.filter (fun r -> r.r_skipped) results);
    s_tests = List.fold_left (fun a r -> a + r.r_tests) 0 results;
    s_features = List.sort_uniq compare (List.concat_map (fun r -> r.r_features) results);
    s_wall = Obs.Clock.now () -. t0;
    s_obs = merge_workers worker_regs;
    s_workers =
      Array.to_list
        (Array.mapi (fun i r -> (Printf.sprintf "selftest-w%d" i, r)) worker_regs);
    s_cov_keys = Runtime.IntSet.cardinal cov;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

(** The canonical scheduling-independent summary: everything except
    wall-clock.  [jobs=1] and [jobs=N] must render identically. *)
let summary_line (s : summary) : string =
  Printf.sprintf
    "cases=%d ran=%d skipped=%d failures=%d tests=%d features=%d/%d cov1000=%.1f"
    s.s_config.cases s.s_ran s.s_skipped (List.length s.s_failures) s.s_tests
    (List.length s.s_features)
    (List.length Randprog.feature_universe)
    (cov_per_1000 s)

let pp_summary ppf (s : summary) =
  Format.fprintf ppf "selftest: %s (%.2fs)@." (summary_line s) s.s_wall;
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
