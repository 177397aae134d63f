(* Tests for the coverage-guided corpus and the AST mutation engine
   behind `p4testgen selftest --corpus` (ROADMAP item 3).

   Corpus mechanics: admission on novelty, oldest-first eviction, the
   minimum-size floor under aging, and a byte-exact save/load/save
   round-trip of the versioned on-disk format.  Mutation engine: a
   QCheck property that every mutant of every generated program either
   prepares cleanly or fails with a *structured* [prepare_error] —
   never an exception — across all three architectures, and that
   mutation is deterministic in (seed, source, donor).  Campaign
   integration: a killed-and-resumed corpus campaign (via the
   [interrupt_after] test hook) must produce a summary and corpus file
   bit-identical to an uninterrupted run at the same seed, and a
   campaign whose checkpoint write fails must return the domain pool's
   tokens. *)

module Campaign = Selftest.Campaign
module Corpus = Selftest.Corpus
module Mutate = Selftest.Mutate
module Randprog = Progzoo.Randprog
module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module ISet = Corpus.ISet

(* ------------------------------------------------------------------ *)
(* Helpers *)

(* unique empty directory without depending on Unix: let temp_file
   pick an unused name, then turn it into a directory *)
let fresh_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let keys_of_list l = ISet.of_list l

(* ------------------------------------------------------------------ *)
(* Admission, eviction order, and the min-size floor *)

let test_admission_and_eviction () =
  let c = Corpus.create ~max_size:4 ~min_size:2 ~max_mutations:24 () in
  (* six admissions, each with a fresh coverage key: the ring holds
     the last four, oldest first *)
  for i = 1 to 6 do
    let admitted =
      Corpus.observe c
        ~src:(Printf.sprintf "prog%d" i)
        ~arch:"v1model" ~tags:[ "t" ]
        ~keys:(keys_of_list [ i ])
    in
    Alcotest.(check bool) (Printf.sprintf "case %d admitted" i) true admitted
  done;
  Alcotest.(check int) "ring bounded" 4 (Corpus.size c);
  Alcotest.(check int) "evictions counted" 2 c.Corpus.evictions;
  Alcotest.(check (list string))
    "oldest evicted first"
    [ "prog3"; "prog4"; "prog5"; "prog6" ]
    (List.map (fun e -> e.Corpus.src) (Corpus.entries c));
  (* no novelty, no new combo: rejected and not counted as an admit *)
  let dup =
    Corpus.observe c ~src:"dup" ~arch:"v1model" ~tags:[ "t" ] ~keys:(keys_of_list [ 3 ])
  in
  Alcotest.(check bool) "stale case rejected" false dup;
  Alcotest.(check int) "admit count unchanged" 6 c.Corpus.admits;
  (* a previously unseen feature-tag combination admits even with
     zero coverage novelty *)
  let combo =
    Corpus.observe c ~src:"combo" ~arch:"tna" ~tags:[ "t" ] ~keys:(keys_of_list [ 3 ])
  in
  Alcotest.(check bool) "new tag combo admits" true combo

let test_min_size_floor () =
  let c = Corpus.create ~max_size:8 ~min_size:2 ~max_mutations:1 () in
  for i = 1 to 3 do
    ignore
      (Corpus.observe c
         ~src:(Printf.sprintf "prog%d" i)
         ~arch:"v1model" ~tags:[ "t" ]
         ~keys:(keys_of_list [ i ]))
  done;
  (* age every entry far past max_mutations: retirement must stop at
     the floor *)
  List.iter
    (fun (e : Corpus.entry) ->
      for _ = 1 to 5 do
        Corpus.note_mutation c ~id:e.Corpus.id
      done)
    (Corpus.entries c);
  Alcotest.(check int) "aged down to the floor" 2 (Corpus.size c);
  Alcotest.(check int) "mutations all counted" 15 c.Corpus.mutations_total

(* ------------------------------------------------------------------ *)
(* Persistence: save -> load -> save must be byte-identical, and the
   loaded corpus must carry every counter and the coverage-key set *)

let test_persistence_round_trip () =
  let c = Corpus.create ~max_size:4 ~min_size:2 ~max_mutations:24 () in
  for i = 1 to 5 do
    ignore
      (Corpus.observe c
         ~src:(Printf.sprintf "control c%d() { apply { } }\n" i)
         ~arch:(if i mod 2 = 0 then "tna" else "v1model")
         ~tags:[ "tables"; Printf.sprintf "f%d" i ]
         ~keys:(keys_of_list [ i; i + 100 ]))
  done;
  (match Corpus.entries c with
  | e :: _ -> Corpus.note_mutation c ~id:e.Corpus.id
  | [] -> Alcotest.fail "corpus unexpectedly empty");
  Corpus.note_splice c;
  let d1 = fresh_dir "p4tg-corpus-rt1" and d2 = fresh_dir "p4tg-corpus-rt2" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf d1;
      rm_rf d2)
    (fun () ->
      Corpus.save c d1;
      let c' =
        match Corpus.load d1 with
        | Some c' -> c'
        | None -> Alcotest.fail "saved corpus does not load"
      in
      Alcotest.(check int) "size survives" (Corpus.size c) (Corpus.size c');
      Alcotest.(check int) "admits survive" c.Corpus.admits c'.Corpus.admits;
      Alcotest.(check int) "evictions survive" c.Corpus.evictions c'.Corpus.evictions;
      Alcotest.(check int) "novelty survives" c.Corpus.coverage_novelty
        c'.Corpus.coverage_novelty;
      Alcotest.(check int) "mutations survive" c.Corpus.mutations_total
        c'.Corpus.mutations_total;
      Alcotest.(check int) "splices survive" c.Corpus.splice_sources
        c'.Corpus.splice_sources;
      Alcotest.(check int) "cases survive" c.Corpus.cases_seen c'.Corpus.cases_seen;
      Alcotest.(check bool) "seen keys survive" true
        (ISet.equal c.Corpus.seen c'.Corpus.seen);
      List.iter2
        (fun (a : Corpus.entry) (b : Corpus.entry) ->
          Alcotest.(check string) "entry source survives" a.Corpus.src b.Corpus.src;
          Alcotest.(check (list string)) "entry tags survive" a.Corpus.tags b.Corpus.tags;
          Alcotest.(check int) "entry age survives" a.Corpus.mutations b.Corpus.mutations)
        (Corpus.entries c) (Corpus.entries c');
      Corpus.save c' d2;
      Alcotest.(check string) "canonical serialization: save/load/save bytes"
        (read_file (Filename.concat d1 "corpus.p4tg"))
        (read_file (Filename.concat d2 "corpus.p4tg")))

let test_corrupt_file_ignored () =
  let d = fresh_dir "p4tg-corpus-bad" in
  Fun.protect
    ~finally:(fun () -> rm_rf d)
    (fun () ->
      Out_channel.with_open_bin (Filename.concat d "corpus.p4tg") (fun oc ->
          Out_channel.output_string oc "p4tg-corpus-v999\nnot a corpus\n");
      Alcotest.(check bool) "wrong-version file rejected, not crashed" true
        (Corpus.load d = None))

(* ------------------------------------------------------------------ *)
(* Mutation engine: totality and determinism.

   The campaign discards mutants whose [prepare_result] is [Error _];
   an *exception* escaping [prepare_result] (or the mutator itself)
   would be a real bug.  Hunt for one over random (arch, generator
   seed, mutation seed, donor) draws. *)

let target_of arch = Option.get (Targets.Registry.find arch)

let arb_mutation_case =
  QCheck.make
    ~print:(fun (a, gs, ms, ds) ->
      Printf.sprintf "arch=%s gen_seed=%d mut_seed=%d donor_seed=%d"
        (Randprog.arch_name (List.nth Randprog.all_archs a))
        gs ms ds)
    QCheck.Gen.(
      quad (int_range 0 2) (int_range 1 200) (int_range 1 1_000_000) (int_range 0 200))

let prop_mutants_prepare_or_structured_error (a, gen_seed, mut_seed, donor_seed) =
  let arch = List.nth Randprog.all_archs a in
  let gen = Randprog.generate_for ~arch ~seed:gen_seed in
  let donor =
    if donor_seed = 0 then None
    else Some (Randprog.generate_for ~arch ~seed:donor_seed).Randprog.src
  in
  match Mutate.mutate ~seed:mut_seed ?donor gen.Randprog.src with
  | None -> true (* no drawn mutator applied: fine *)
  | Some m -> (
      match Oracle.prepare_result (target_of (Randprog.arch_name arch)) m.Mutate.m_src with
      | Ok _ -> true
      | Error e ->
          (* structured failure: must render without raising *)
          ignore (Oracle.prepare_error_message e);
          true
      | exception e ->
          QCheck.Test.fail_reportf
            "prepare_result raised %s on mutant (ops: %s)\n%s"
            (Printexc.to_string e)
            (String.concat "," m.Mutate.m_ops)
            m.Mutate.m_src)

let prop_mutation_deterministic (a, gen_seed, mut_seed, donor_seed) =
  let arch = List.nth Randprog.all_archs a in
  let src = (Randprog.generate_for ~arch ~seed:gen_seed).Randprog.src in
  let donor =
    if donor_seed = 0 then None
    else Some (Randprog.generate_for ~arch ~seed:donor_seed).Randprog.src
  in
  let run () =
    match Mutate.mutate ~seed:mut_seed ?donor src with
    | None -> None
    | Some m -> Some (m.Mutate.m_src, m.Mutate.m_ops)
  in
  run () = run ()

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:60 ~name:"mutants prepare or fail structurally"
        arb_mutation_case prop_mutants_prepare_or_structured_error;
      QCheck.Test.make ~count:40 ~name:"mutation deterministic in (seed, src, donor)"
        arb_mutation_case prop_mutation_deterministic;
    ]

(* ------------------------------------------------------------------ *)
(* Campaign integration: interrupt at a batch boundary, resume from
   the checkpoint, and compare against an uninterrupted run — the
   scheduling-independent summary and the persisted corpus must both
   be identical.  Exercises the same code path as a SIGKILL mid-run
   (the [interrupt_after] hook stops after checkpointing, before the
   reduction post-pass). *)

let test_resume_bit_identity () =
  let mk dir =
    {
      Campaign.default_config with
      Campaign.cases = 8;
      seed = 13;
      archs = [ Randprog.V1model; Randprog.Ebpf ];
      max_tests = 6;
      reduce = false;
      corpus_dir = Some dir;
      corpus_batch = 4;
    }
  in
  let d_ref = fresh_dir "p4tg-campaign-ref" and d_int = fresh_dir "p4tg-campaign-int" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf d_ref;
      rm_rf d_int)
    (fun () ->
      let reference = Campaign.run (mk d_ref) in
      Alcotest.(check bool) "reference not interrupted" false
        reference.Campaign.s_interrupted;
      let killed =
        Campaign.run { (mk d_int) with Campaign.interrupt_after = Some 4 }
      in
      Alcotest.(check bool) "interrupt hook fired" true killed.Campaign.s_interrupted;
      Alcotest.(check bool) "checkpoint persisted" true
        (Sys.file_exists (Filename.concat d_int "campaign.ck"));
      let resumed = Campaign.run (mk d_int) in
      Alcotest.(check bool) "resume completes" false resumed.Campaign.s_interrupted;
      Alcotest.(check bool) "checkpoint cleared on completion" false
        (Sys.file_exists (Filename.concat d_int "campaign.ck"));
      Alcotest.(check string) "summary identical to uninterrupted"
        (Campaign.summary_line reference)
        (Campaign.summary_line resumed);
      Alcotest.(check string) "corpus file bytes identical"
        (read_file (Filename.concat d_ref "corpus.p4tg"))
        (read_file (Filename.concat d_int "corpus.p4tg")))

(* a checkpoint write that fails must reach the caller and leave the
   domain pool as it found it: a directory squatting on the corpus
   file's write-then-rename temporary makes the first batch's save
   raise [Sys_error] right after that batch's parallel phase *)
let test_failed_checkpoint_returns_tokens () =
  let dir = fresh_dir "p4tg-campaign-ck" in
  let squat = Filename.concat dir (Corpus.file_name ^ ".tmp") in
  Sys.mkdir squat 0o755;
  Fun.protect
    ~finally:(fun () ->
      Sys.rmdir squat;
      rm_rf dir)
    (fun () ->
      let tokens0 = Atomic.get Explore.Pool.tokens in
      let cfg =
        {
          Campaign.default_config with
          Campaign.cases = 4;
          seed = 3;
          jobs = 2;
          max_tests = 4;
          reduce = false;
          corpus_dir = Some dir;
          corpus_batch = 4;
        }
      in
      (match Campaign.run cfg with
      | _ -> Alcotest.fail "the checkpoint write should have failed"
      | exception Sys_error _ -> ());
      Alcotest.(check int) "pool tokens returned" tokens0
        (Atomic.get Explore.Pool.tokens))

let () =
  Alcotest.run "corpus"
    [
      ( "ring",
        [
          Alcotest.test_case "admission and eviction order" `Quick
            test_admission_and_eviction;
          Alcotest.test_case "min-size floor under aging" `Quick test_min_size_floor;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load/save round-trip" `Quick
            test_persistence_round_trip;
          Alcotest.test_case "corrupt file ignored" `Quick test_corrupt_file_ignored;
        ] );
      ("mutation", qcheck_cases);
      ( "campaign",
        [
          Alcotest.test_case "killed+resumed bit-identity" `Quick
            test_resume_bit_identity;
          Alcotest.test_case "failed checkpoint returns pool tokens" `Quick
            test_failed_checkpoint_returns_tokens;
        ] );
    ]
