(* Differential fuzzing on the self-validation campaign engine (§7/§8).

   Each campaign case draws a random well-typed program, generates its
   whole suite with the oracle, and replays every test on the
   independent concrete simulator; on a cadence the campaign also
   checks cross-cutting invariants (seed determinism, alternative
   strategies validating).  The
   Quick tests run small fixed-seed campaigns per architecture plus a
   worker-count determinism check; the Slow test runs a larger mixed
   campaign. *)

module Campaign = Selftest.Campaign
module Randprog = Progzoo.Randprog

let failure_report (s : Campaign.summary) =
  String.concat "; "
    (List.map
       (fun (f : Campaign.failure) ->
         Printf.sprintf "case %d (%s, seed %d): %s: %s" f.Campaign.f_case
           f.Campaign.f_arch f.Campaign.f_seed f.Campaign.f_kind
           (match String.index_opt f.Campaign.f_detail '\n' with
           | Some i -> String.sub f.Campaign.f_detail 0 i
           | None -> f.Campaign.f_detail))
       s.Campaign.s_failures)

let run_campaign cfg =
  let s = Campaign.run cfg in
  Alcotest.(check string) "no campaign failures" "" (failure_report s);
  s

(* per-architecture smoke campaigns: a handful of fixed-seed cases
   through the full differential pipeline *)
let smoke arch () =
  let cfg =
    {
      Campaign.default_config with
      Campaign.cases = 8;
      seed = 42;
      archs = [ arch ];
      max_tests = 10;
      reduce = false;
    }
  in
  let s = run_campaign cfg in
  Alcotest.(check int) "all cases ran" 8 s.Campaign.s_ran;
  Alcotest.(check bool) "oracle generated tests" true (s.Campaign.s_tests > 0)

(* the campaign summary must not depend on the worker count *)
let test_jobs_determinism () =
  let cfg =
    {
      Campaign.default_config with
      Campaign.cases = 9;
      seed = 5;
      max_tests = 8;
      reduce = false;
    }
  in
  let s1 = run_campaign { cfg with Campaign.jobs = 1 } in
  let s2 = run_campaign { cfg with Campaign.jobs = 4 } in
  Alcotest.(check string) "summaries identical across jobs"
    (Campaign.summary_line s1) (Campaign.summary_line s2);
  let tests_per_case s =
    List.map (fun (r : Campaign.case_result) -> r.Campaign.r_tests) s.Campaign.s_results
  in
  Alcotest.(check (list int)) "per-case test counts identical" (tests_per_case s1)
    (tests_per_case s2)

(* the larger mixed-architecture campaign *)
let test_slow_campaign () =
  let cfg =
    { Campaign.default_config with Campaign.cases = 45; seed = 11; jobs = 2 }
  in
  let s = run_campaign cfg in
  Alcotest.(check int) "all cases ran" 45 s.Campaign.s_ran;
  Alcotest.(check bool) "exercises most generator features" true
    (List.length s.Campaign.s_features >= 12)

let () =
  Alcotest.run "fuzz"
    [
      ( "campaign",
        [
          Alcotest.test_case "v1model smoke" `Quick (smoke Randprog.V1model);
          Alcotest.test_case "ebpf_model smoke" `Quick (smoke Randprog.Ebpf);
          Alcotest.test_case "tna smoke" `Quick (smoke Randprog.Tna);
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "mixed 45-case campaign" `Slow test_slow_campaign;
        ] );
    ]
