(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7), and runs the gate on what needs wall-clock.

     dune exec bench/main.exe              run every experiment
     dune exec bench/main.exe -- fig1      Fig. 1c  worked examples
     dune exec bench/main.exe -- tables    Tbl. 1 & Tbl. 5 (capability tables)
     dune exec bench/main.exe -- fig7      Fig. 7   CPU-time distribution
     dune exec bench/main.exe -- table2    Tbl. 2   bug classes found per target
     dune exec bench/main.exe -- table3    Tbl. 3   BMv2 bug details
     dune exec bench/main.exe -- table4a   Tbl. 4a  large-program statistics
     dune exec bench/main.exe -- table4b   Tbl. 4b  precondition effect
     dune exec bench/main.exe -- gate      serve cold vs warm; exit 1 if
                                           any row fails
     dune exec bench/main.exe -- solver    the decision procedure's work
                                           on each gen_large program

   Absolute numbers differ from the paper (its substrate was BMv2/Tofino
   hardware and 13-hour runs); the *shape* of each result is the claim
   being reproduced — see EXPERIMENTS.md.  Timings are measured by the
   end-to-end benchmark in e2ebench/. *)

module Bits = Bitv.Bits
module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Runtime = Testgen.Runtime

let hr () = print_endline (String.make 78 '-')

let header title =
  hr ();
  Printf.printf "%s\n" title;
  hr ()

let target_of arch = Option.get (Targets.Registry.find arch)

let generate ?(opts = Runtime.default_options) ?(config = Explore.default_config) arch src =
  Oracle.generate ~opts ~config (target_of arch) src

(* ------------------------------------------------------------------ *)
(* Fig. 1c: worked examples *)

let fig1 () =
  header "Fig. 1c — tests generated for the programs of Fig. 1a / Fig. 1b";
  let show name src =
    Printf.printf "--- %s ---\n" name;
    Printf.printf "%-8s %-5s %-30s %-5s %-30s %s\n" "SizeIn" "In" "Input data" "Out"
      "Output data" "Config";
    let run = generate "v1model" src in
    List.iter
      (fun (t : Testgen.Testspec.t) ->
        let out_port, out_data =
          match (Testgen.Testspec.outputs t) with
          | [] -> ("X", "(drop)")
          | o :: _ -> (string_of_int (Bits.to_int o.port), Bits.to_hex o.data)
        in
        Printf.printf "%-8d %-5d %-30s %-5s %-30s %s\n" (Bits.width (Testgen.Testspec.input t).data)
          (Bits.to_int (Testgen.Testspec.input t).port) (Bits.to_hex (Testgen.Testspec.input t).data) out_port out_data
          (String.concat "; " (List.map (fun e -> Format.asprintf "%a" Testgen.Testspec.pp_entry e) t.entries)))
      run.Oracle.result.Explore.tests;
    print_newline ()
  in
  show "Fig. 1a (forward on EtherType)" Progzoo.Corpus.fig1a;
  show "Fig. 1b (checksum validation, concolic)" Progzoo.Corpus.fig1b

(* ------------------------------------------------------------------ *)
(* Tbl. 1 and Tbl. 5 *)

let tables () =
  header "Tbl. 1 — P4Testgen extensions";
  Printf.printf "%-14s %-14s %s\n" "Architecture" "Target" "Test back ends";
  List.iter
    (fun (arch, (device, backends)) ->
      Printf.printf "%-14s %-14s %s\n" arch device (String.concat ", " backends))
    Targets.Registry.capabilities;
  print_newline ();
  header "Tbl. 5 — tools that test the P4 toolchain (static comparison)";
  Printf.printf "%-12s %-12s %-12s %-16s %s\n" "Tool" "Method" "No input?" "Target agnostic"
    "Target semantics";
  List.iter
    (fun (t, m, ni, ta, ts) -> Printf.printf "%-12s %-12s %-12s %-16s %s\n" t m ni ta ts)
    [
      ("Gauntlet", "Symbex", "yes", "yes", "no");
      ("Meissa", "Symbex", "no", "no", "yes");
      ("SwitchV", "Hybrid", "no", "no", "yes");
      ("Petr4", "Symbex", "no", "yes", "yes");
      ("p4pktgen", "Symbex", "yes", "no", "no");
      ("PTA", "Fuzzing", "no", "yes", "no");
      ("DBVal", "Fuzzing", "no", "yes", "no");
      ("FP4", "Fuzzing", "no", "yes", "no");
      ("P4Testgen", "Symbex", "yes", "yes", "yes");
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 7: CPU-time distribution *)

let fig7 () =
  header "Fig. 7 — average CPU time spent in P4Testgen phases";
  (* The buckets are the explorer's ledger, which partitions a run:
     stepping, branch feasibility and emission, each of the last two
     net of the solver time spent inside it, plus SMT solving (the SAT
     core's time, [solver.time]); preparation comes before the run, and
     "other" is what none of them names.  A program is generated again
     until its runs hold at least 0.5 s of exploration, so no bucket
     rests on one short run. *)
  let sample name arch src config =
    let snap = ref Obs.Snapshot.empty and runs = ref 0 and tests = ref 0 in
    while Obs.Snapshot.get_float !snap "explore.total_time" < 0.5 do
      let run = Oracle.generate ~config (target_of arch) src in
      snap := Obs.Snapshot.merge !snap (Obs.Registry.snapshot (Oracle.registry run));
      tests := List.length run.Oracle.result.Explore.tests;
      incr runs
    done;
    let f = Obs.Snapshot.get_float !snap in
    let prep = f "oracle.prep_time" and solve = f "solver.time" in
    let emit_solve = f "explore.t_emit_solve" in
    let step = f "explore.t_step" in
    let branch = f "explore.t_branch" -. (solve -. emit_solve) in
    let emit = f "explore.t_emit" -. emit_solve in
    let total = prep +. f "explore.total_time" in
    let other = total -. prep -. step -. branch -. emit -. solve in
    let pct x = 100.0 *. x /. total in
    Printf.printf "%-24s %6d tests  %d runs  %6.3fs per run
" name !tests !runs
      (total /. float_of_int !runs);
    Printf.printf "    IR preparation      %5.1f%%\n" (pct prep);
    Printf.printf "    symbolic stepping   %5.1f%%\n" (pct step);
    Printf.printf "    branch feasibility  %5.1f%%   (net of its solver time)\n" (pct branch);
    Printf.printf "    test emission       %5.1f%%   (net of its solver time)\n" (pct emit);
    Printf.printf "    SMT solving         %5.1f%%   (the paper reports < 10%% for Z3)\n"
      (pct solve);
    Printf.printf "    other               %5.1f%%\n" (pct other);
    pct solve
  in
  let cap n = { Explore.default_config with Explore.max_tests = Some n } in
  let s1 = sample "middleblock (2 ACLs)" "v1model" (Progzoo.Generators.middleblock ~acl_stages:2 ()) (cap 400) in
  let s2 = sample "up4" "v1model" (Progzoo.Generators.up4 ()) Explore.default_config in
  let s3 = sample "switch (6 stages, tna)" "tna" (Progzoo.Generators.switch_tna ~stages:6 ()) (cap 400) in
  Printf.printf "\nsolver share across programs: %.1f%% / %.1f%% / %.1f%%\n" s1 s2 s3

(* ------------------------------------------------------------------ *)
(* Tbl. 2 / Tbl. 3: the bug-finding study, shared with the selftest
   subsystem's mutation scorer (which also runs on dune runtest) *)

module Mutscore = Selftest.Mutscore

let campaign () = Mutscore.score ()

let table2 () =
  header "Tbl. 2 — toolchain bugs discovered, by type and target";
  Printf.printf "(reproduced as a seeded-fault campaign: %d faults injected into the\n"
    (List.length Sim.Mutation.corpus);
  Printf.printf " simulated toolchains; a fault counts as a discovered bug when at least\n";
  Printf.printf " one generated test exposes it)\n\n";
  let results = campaign () in
  (* a detected fault counts under the bug's class (as the paper's
     tables classify bugs, not failure symptoms) *)
  let count target kind =
    List.length
      (List.filter
         (fun ((m : Sim.Mutation.t), d) ->
           m.m_target = target && m.m_kind = kind && d <> Mutscore.Undetected)
         results)
  in
  let undetected = Mutscore.undetected results in
  Printf.printf "%-12s %-8s %-8s %s\n" "Bug Type" "BMv2" "Tofino" "Total";
  let exc_b = count "BMv2" Sim.Mutation.Exception
  and exc_t = count "Tofino" Sim.Mutation.Exception in
  let wrg_b = count "BMv2" Sim.Mutation.Wrong_code
  and wrg_t = count "Tofino" Sim.Mutation.Wrong_code in
  Printf.printf "%-12s %-8d %-8d %d\n" "Exception" exc_b exc_t (exc_b + exc_t);
  Printf.printf "%-12s %-8d %-8d %d\n" "Wrong Code" wrg_b wrg_t (wrg_b + wrg_t);
  Printf.printf "%-12s %-8d %-8d %d\n" "Total" (exc_b + wrg_b) (exc_t + wrg_t)
    (exc_b + wrg_b + exc_t + wrg_t);
  Printf.printf "(paper: Exception 8/9/17, Wrong Code 1/7/8, Total 9/16/25)\n";
  if undetected <> [] then begin
    Printf.printf "\nundetected faults:\n";
    List.iter
      (fun ((m : Sim.Mutation.t), _) ->
        Printf.printf "  %-8s %s\n" m.m_label m.m_desc)
      undetected
  end

let table3 () =
  header "Tbl. 3 — BMv2/P4C bugs (details and campaign status)";
  let results = campaign () in
  Printf.printf "%-9s %-10s %-12s %s\n" "Bug" "Status" "Type" "Description";
  List.iter
    (fun ((m : Sim.Mutation.t), d) ->
      if m.m_target = "BMv2" then
        Printf.printf "%-9s %-10s %-12s %s\n" m.m_label
          (match d with Mutscore.Detected _ -> "Detected" | Mutscore.Undetected -> "Missed")
          (Sim.Mutation.kind_name m.m_kind) m.m_desc)
    results

(* ------------------------------------------------------------------ *)
(* Tbl. 4a: large-program statistics *)

let table4a () =
  header "Tbl. 4a — P4Testgen statistics for large P4 programs";
  Printf.printf "%-26s %-9s %-12s %-9s %s\n" "P4 program" "Arch." "Valid tests" "Time"
    "Stmt. cov.";
  let row name arch src cap =
    let config = { Explore.default_config with Explore.max_tests = cap } in
    let run = generate arch src ~config in
    let r = run.Oracle.result in
    let n = List.length r.Explore.tests in
    let capped = match cap with Some c when n >= c -> true | _ -> false in
    Printf.printf "%-26s %-9s %-12s %-9s %.0f%%\n" name arch
      ((if capped then ">" else "") ^ string_of_int n)
      (Printf.sprintf "%.1fs" r.Explore.total_time)
      (Explore.coverage_pct r)
  in
  row "middleblock (2 ACLs)" "v1model" (Progzoo.Generators.middleblock ~acl_stages:2 ()) None;
  row "up4" "v1model" (Progzoo.Generators.up4 ()) None;
  row "switch (8 stages)" "tna" (Progzoo.Generators.switch_tna ~stages:8 ()) (Some 1000);
  row "switch (8 stages)" "t2na" (Progzoo.Generators.switch_tna ~stages:8 ()) (Some 1000);
  Printf.printf
    "(paper: middleblock ~238k/13h/100%%, up4 ~34k/2h/95%%, switch >1000k/41%% and 30%%;\n\
    \ shape to check: middleblock reaches full coverage, up4 stops short of 100%%\n\
    \ because the unconfigured meter never returns RED, switch is capped with\n\
    \ coverage well below the others)\n"

(* ------------------------------------------------------------------ *)
(* Tbl. 4b: effect of preconditions *)

let table4b () =
  header "Tbl. 4b — preconditions vs number of generated tests (middleblock)";
  let src = Progzoo.Generators.middleblock ~acl_stages:2 () in
  let run_with name constraints fixed =
    let opts =
      {
        Runtime.default_options with
        apply_constraints = constraints;
        fixed_packet_bytes = fixed;
      }
    in
    let run = generate ~opts "v1model" src in
    let r = run.Oracle.result in
    (name, r.Explore.stats.Explore.paths, Explore.coverage_pct r)
  in
  let rows =
    [
      run_with "None" false None;
      run_with "Fixed-size pkt. (1500B)" false (Some 1500);
      run_with "P4-constraints" true None;
      run_with "P4-constraints & fixed-size" true (Some 1500);
    ]
  in
  let base = match rows with (_, n, _) :: _ -> float_of_int n | [] -> 1.0 in
  Printf.printf "%-30s %-18s %-11s %s\n" "Applied precondition" "Valid test paths" "Reduction"
    "Stmt. cov.";
  List.iter
    (fun (name, n, cov) ->
      Printf.printf "%-30s %-18d %-11s %.0f%%\n" name n
        (Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (float_of_int n /. base))))
        cov)
    rows;
  Printf.printf "(paper: 237846/0%%, 178384/25%%, 135719/43%%, 101789/57%%; all 100%% coverage)\n"

(* ------------------------------------------------------------------ *)
(* gate: the checks that need wall-clock, so they cannot run under
   dune runtest.  Prints one row per check and subject — check,
   subject, measured, bound, verdict — and exits 1 if any row fails.
   Writes no files. *)

let failed = ref false

let row check subject measured bound ok =
  if not ok then failed := true;
  Printf.printf "%-8s %-20s %-32s %-34s %s\n%!" check subject measured bound
    (if ok then "ok" else "FAIL")

(* serve: a warm request finds its prepared oracle cached, so it skips
   preparation and is faster than a cold one.  Each of 11 pairs flushes
   the cache and sends a cold then a warm request, so both series share
   ambient conditions (GC phase, scheduling).  Programs are sized so
   preparation is a measurable share of a cold request while the
   1-test exploration stays cheap. *)
let gate_serve () =
  let sock = Filename.temp_file "p4tg-bench" ".sock" in
  let ep = Serve.Wire.Unix_sock sock in
  let server =
    Serve.Server.start
      {
        Serve.Server.default_config with
        Serve.Server.endpoint = ep;
        cache_slots = 8;
        workers = 2;
      }
  in
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "error: %s\n" msg;
        Serve.Server.stop server;
        exit 2)
      fmt
  in
  if not (Serve.Client.wait_ready ep) then die "serve daemon did not come up on %s" sock;
  let rpc rq =
    match Serve.Client.request ep rq with
    | Ok evs -> evs
    | Error msg -> die "serve request failed: %s" msg
  in
  let p50 l = List.nth (List.sort compare l) ((List.length l - 1) / 2) in
  List.iter
    (fun acls ->
      let name = Printf.sprintf "middleblock_%dacl" acls in
      let rq =
        {
          Serve.Wire.default_request with
          Serve.Wire.rq_arch = "v1model";
          rq_max_tests = Some 1;
          rq_source = Some (Progzoo.Generators.middleblock ~acl_stages:acls ());
        }
      in
      (* (latency, prepare seconds) of one request *)
      let sample () =
        let t0 = Obs.Clock.now () in
        let evs = rpc rq in
        let dt = Obs.Clock.now () -. t0 in
        (match Serve.Client.find_error evs with
        | Some (kind, msg) -> die "%s: server said %s: %s" name kind msg
        | None -> ());
        let summary = Option.value ~default:[] (Serve.Client.find_summary evs) in
        let get k = Option.value ~default:"" (Serve.Client.summary_get summary k) in
        (dt, float_of_string (get "prep_seconds"))
      in
      ignore (sample ());  (* absorb one-off warm-up costs *)
      let flush = { Serve.Wire.default_request with Serve.Wire.rq_op = Serve.Wire.Flush } in
      let pairs =
        List.init 11 (fun _ ->
            ignore (rpc flush);
            let cold = sample () in
            (cold, sample ()))
      in
      let cold = p50 (List.map (fun ((dt, _), _) -> dt) pairs) in
      let warm = p50 (List.map (fun (_, (dt, _)) -> dt) pairs) in
      let warm_prep = List.fold_left (fun acc (_, (_, p)) -> Float.max acc p) 0.0 pairs in
      row "serve" name
        (Printf.sprintf "warm p50 %.3fms, prep %.3fms" (1e3 *. warm) (1e3 *. warm_prep))
        (Printf.sprintf "< cold p50 %.3fms, prep 0" (1e3 *. cold))
        (warm < cold && warm_prep = 0.0))
    [ 128; 400; 800 ];
  Serve.Server.stop server

let gate () =
  header "Gate — serve cold vs warm";
  Printf.printf "%-8s %-20s %-32s %-34s %s\n" "check" "subject" "measured" "bound" "verdict";
  gate_serve ();
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* The decision procedure's work on the six programs of the end-to-end
   benchmark's gen_large workload (e2ebench/gen.ml), at oracle seed 1:
   checks, SAT work per check, the most SAT variables one solver held,
   blaster cache misses and solver time.  Counts are deterministic;
   the time is this host's. *)

let solver () =
  header "Solver — gen_large programs at oracle seed 1";
  let mb a = Progzoo.Generators.middleblock ~acl_stages:a () in
  let sw s = Progzoo.Generators.switch_tna ~stages:s () in
  let programs =
    [
      ("middleblock_2acl_cap400", "v1model", mb 2, Some 400);
      ("middleblock_8acl_cap400", "v1model", mb 8, Some 400);
      ("middleblock_2acl_full", "v1model", mb 2, None);
      ("switch4_tna_cap400", "tna", sw 4, Some 400);
      ("switch8_tna_cap400", "tna", sw 8, Some 400);
      ("up4_full", "v1model", Progzoo.Generators.up4 (), None);
    ]
  in
  Printf.printf "%-24s %7s %10s %9s %8s %12s %9s
" "program" "checks" "props/chk" "decs/chk"
    "vars_hw" "blast_misses" "solver_s";
  let row name d =
    let i = Obs.Snapshot.get_int d in
    let checks = i "solver.checks" in
    let per k = float_of_int (i k) /. float_of_int (max 1 checks) in
    Printf.printf "%-24s %7d %10.1f %9.1f %8d %12d %9.3f
" name checks (per "sat.propagations")
      (per "sat.decisions") (i "solver.vars_hw") (i "blast.cache_misses")
      (Obs.Snapshot.get_float d "solver.time")
  in
  let total =
    List.fold_left
      (fun acc (name, arch, src, cap) ->
        let opts = { Runtime.default_options with Runtime.seed = 1 } in
        let config = { Explore.default_config with Explore.max_tests = cap } in
        let d = (generate ~opts ~config arch src).Oracle.result.Explore.obs in
        row name d;
        Obs.Snapshot.merge acc d)
      Obs.Snapshot.empty programs
  in
  row "total" total

(* ------------------------------------------------------------------ *)

let all () =
  fig1 ();
  tables ();
  table2 ();
  table3 ();
  table4a ();
  table4b ();
  fig7 ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> all ()
  | [ _; "fig1" ] -> fig1 ()
  | [ _; "tables" ] -> tables ()
  | [ _; "fig7" ] -> fig7 ()
  | [ _; "table2" ] -> table2 ()
  | [ _; "table3" ] -> table3 ()
  | [ _; "table4a" ] -> table4a ()
  | [ _; "table4b" ] -> table4b ()
  | [ _; "gate" ] -> gate ()
  | [ _; "solver" ] -> solver ()
  | _ ->
      prerr_endline
        "usage: main.exe [fig1 | tables | fig7 | table2 | table3 | table4a | table4b | gate | solver]";
      exit 2
