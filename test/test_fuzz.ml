(* Differential fuzzing on the self-validation campaign engine (§7/§8).

   Each campaign case draws a random well-typed program, generates its
   whole suite with the oracle, and replays every test on the
   independent concrete simulator; on a cadence the campaign also
   checks cross-cutting invariants (seed determinism, alternative
   strategies validating).  The
   Quick tests run small fixed-seed campaigns per architecture plus a
   worker-count determinism check; the Slow test runs a larger mixed
   campaign.  A QCheck property damages valid programs byte by byte
   and checks that the oracle's front door stays total. *)

module Campaign = Selftest.Campaign
module Oracle = Testgen.Oracle
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

(* ------------------------------------------------------------------ *)
(* Byte-level totality: a damaged program must come back from
   [Oracle.fingerprint] and [Oracle.prepare_result] as [Ok] or a
   structured [Error], never as an exception, and within a second.  The
   seeds are every fixed corpus program and random programs at all
   three architectures; each case makes one to four edits. *)

let seed_programs =
  List.map
    (fun (name, src) ->
      let arch =
        match name with "ebpf_filter" -> "ebpf_model" | "tna_basic" -> "tna" | _ -> "v1model"
      in
      (name, arch, src))
    Progzoo.Corpus.all
  @ List.concat_map
      (fun arch ->
        List.map
          (fun seed ->
            let name = Printf.sprintf "randprog %s %d" (Randprog.arch_name arch) seed in
            (name, Randprog.arch_name arch, (Randprog.generate_for ~arch ~seed).Randprog.src))
          [ 1; 2; 3 ])
      Randprog.all_archs

(* positions are drawn large and taken modulo the current length *)
type edit =
  | Delete of int * int  (** position, length *)
  | Duplicate of int * int
  | Truncate of int
  | Insert of int * char
  | Overwrite of int * char

let punctuation = "{}()[]<>;:,.=+-*/&|^!~?@#\"'_0123456789"

let apply_edit src edit =
  let n = String.length src in
  let at p = if n = 0 then 0 else p mod n in
  let splice p len ins =
    String.sub src 0 p ^ ins ^ String.sub src (p + len) (n - p - len)
  in
  match edit with
  | Delete (p, len) ->
      let p = at p in
      splice p (min len (n - p)) ""
  | Duplicate (p, len) ->
      let p = at p in
      let len = min len (n - p) in
      splice p 0 (String.sub src p len)
  | Truncate p -> String.sub src 0 (at p)
  | Insert (p, c) -> splice (at p) 0 (String.make 1 c)
  | Overwrite (p, c) -> if n = 0 then src else splice (at p) 1 (String.make 1 c)

let show_edit = function
  | Delete (p, len) -> Printf.sprintf "delete %d+%d" p len
  | Duplicate (p, len) -> Printf.sprintf "duplicate %d+%d" p len
  | Truncate p -> Printf.sprintf "truncate %d" p
  | Insert (p, c) -> Printf.sprintf "insert %d %C" p c
  | Overwrite (p, c) -> Printf.sprintf "overwrite %d %C" p c

let arb_damage =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 and len = int_range 1 64 in
  let edit =
    oneof
      [
        map2 (fun p l -> Delete (p, l)) pos len;
        map2 (fun p l -> Duplicate (p, l)) pos len;
        map (fun p -> Truncate p) pos;
        map2 (fun p c -> Insert (p, c)) pos char;
        map2 (fun p i -> Overwrite (p, punctuation.[i])) pos
          (int_bound (String.length punctuation - 1));
      ]
  in
  QCheck.make
    ~print:(fun (k, edits) ->
      let name, _, _ = List.nth seed_programs k in
      name ^ ": " ^ String.concat ", " (List.map show_edit edits))
    (pair (int_bound (List.length seed_programs - 1)) (list_size (int_range 1 4) edit))

let prop_front_door_total (k, edits) =
  let _, arch, src = List.nth seed_programs k in
  let src = List.fold_left apply_edit src edits in
  let target = Option.get (Targets.Registry.find arch) in
  let t0 = Obs.Clock.now () in
  let total what f =
    match f () with
    | Ok () -> ()
    | Error e -> ignore (Oracle.prepare_error_message e)
    | exception e ->
        QCheck.Test.fail_reportf "%s raised %s on\n%s" what (Printexc.to_string e) src
  in
  total "fingerprint" (fun () -> Result.map ignore (Oracle.fingerprint ~arch src));
  total "prepare_result" (fun () -> Result.map ignore (Oracle.prepare_result target src));
  let dt = Obs.Clock.now () -. t0 in
  if dt > 1.0 then QCheck.Test.fail_reportf "took %.2fs on\n%s" dt src;
  true

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
      ( "totality",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:400 ~name:"damaged programs prepare or fail"
               arb_damage prop_front_door_total);
        ] );
    ]
