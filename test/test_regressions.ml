(* Regression corpus and mutation coverage.

   Every program under [corpus/regressions/] was once a campaign
   failure (auto-reduced, or hand-minimized from one): each must keep
   validating — the oracle's full suite passes on the pristine
   concrete model — so the bug it exposed stays fixed.  The mutation
   test asserts the generated suites kill every fault in the
   {!Sim.Mutation} catalogue. *)

module Campaign = Selftest.Campaign
module Mutscore = Selftest.Mutscore

(* cwd is the test directory under [dune runtest], the repo root under
   [dune exec] *)
let regressions_dir =
  let local = Filename.concat "corpus" "regressions" in
  if Sys.file_exists local then local else Filename.concat "test" local

let regression_files () =
  Sys.readdir regressions_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".p4")
  |> List.sort compare

(* repro headers are comments at the top of the file: [// arch: tna]
   (required), [// seq-packets: 2] (optional, default 1) *)
let header_of_file path key =
  let prefix = "// " ^ key ^ ": " in
  let ic = open_in path in
  let value = ref None in
  (try
     while !value = None do
       let line = input_line ic in
       if String.starts_with ~prefix line then
         value :=
           Some
             (String.trim
                (String.sub line (String.length prefix)
                   (String.length line - String.length prefix)))
     done
   with End_of_file -> ());
  close_in ic;
  !value

let arch_of_file path =
  match header_of_file path "arch" with
  | Some a -> a
  | None -> Alcotest.failf "%s: missing '// arch:' header" path

let seq_packets_of_file path =
  match header_of_file path "seq-packets" with
  | Some n -> int_of_string n
  | None -> 1

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let revalidate file () =
  let path = Filename.concat regressions_dir file in
  let arch = arch_of_file path in
  let seq_packets = seq_packets_of_file path in
  let src = read_file path in
  match
    Campaign.run_pipeline ~seq_packets ~fault:Sim.Mutation.No_fault ~arch ~seed:3
      ~max_tests:12 src
  with
  | Campaign.All_pass n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: oracle generated tests" file)
        true (n > 0)
  | Campaign.Diff (kind, detail) ->
      Alcotest.failf "%s (%s): regressed: %s: %s" file arch kind detail

(* a sequence campaign's repro names its packet count, so a repro
   committed to the corpus replays the failing sequence rather than a
   single packet *)
let test_sequence_repro_header () =
  let dir = Filename.temp_file "repro" "" in
  Sys.remove dir;
  let cfg =
    { Campaign.default_config with Campaign.sequences = true; out_dir = Some dir }
  in
  let f =
    {
      Campaign.f_case = 11;
      f_arch = "v1model";
      f_seed = 1087113;
      f_kind = "wrong_output";
      f_detail = "packet #3: expected 1 packet(s), got drop";
      f_source = "V1Switch(P(), V(), I(), E(), C(), D()) main;\n";
      f_reduced = None;
      f_file = None;
    }
  in
  match (Campaign.write_repro cfg f).Campaign.f_file with
  | None -> Alcotest.fail "no repro written"
  | Some path ->
      Fun.protect
        ~finally:(fun () ->
          Sys.remove path;
          Sys.rmdir dir)
        (fun () ->
          Alcotest.(check string) "arch" "v1model" (arch_of_file path);
          Alcotest.(check int) "seq-packets"
            (Campaign.case_seq_packets cfg f.Campaign.f_seed)
            (seq_packets_of_file path))

let test_corpus_nonempty () =
  Alcotest.(check bool) "committed regression corpus exists" true
    (List.length (regression_files ()) >= 2)

(* every catalogued simulator fault must be killed by the suites the
   oracle generates for the trigger programs *)
let test_mutation_coverage () =
  let results = Mutscore.score () in
  let missed =
    Mutscore.undetected results
    |> List.map (fun ((m : Sim.Mutation.t), _) -> m.Sim.Mutation.m_label)
  in
  Alcotest.(check (list string)) "all faults killed" [] missed;
  Alcotest.(check int) "whole catalogue scored" (List.length Sim.Mutation.corpus)
    (List.length results)

(* The suite contract: the six programs of the end-to-end benchmark's
   gen_large workload (e2ebench/gen.ml), at oracle seed 1, must emit
   exactly the suites recorded here.  A change that alters suites on
   purpose updates these digests and says so in CHANGES.md. *)
let contract_programs () =
  let mb a = Progzoo.Generators.middleblock ~acl_stages:a () in
  let sw s = Progzoo.Generators.switch_tna ~stages:s () in
  [
    ("middleblock_2acl_cap400", "v1model", mb 2, Some 400, "0815e17445560e48ed4df4de9439766a");
    ("middleblock_8acl_cap400", "v1model", mb 8, Some 400, "235ae2df664cd36b3ca8a57270e22bc6");
    ("middleblock_2acl_full", "v1model", mb 2, None, "b57c578868831cb3a7bd28e010bedb12");
    ("switch4_tna_cap400", "tna", sw 4, Some 400, "10c34856ced470ecc823e1727a669586");
    ("switch8_tna_cap400", "tna", sw 8, Some 400, "3d7ac4b83c2fb016d7964cbee4c16684");
    ("up4_full", "v1model", Progzoo.Generators.up4 (), None, "a3c241483020574f982ce97c19a6106c");
  ]

let test_suite_contract () =
  let got =
    List.map
      (fun (label, arch, src, cap, _) ->
        let opts = { Testgen.Runtime.default_options with Testgen.Runtime.seed = 1 } in
        let config = { Testgen.Explore.default_config with Testgen.Explore.max_tests = cap } in
        let run =
          Testgen.Oracle.generate ~opts ~config
            (Option.get (Targets.Registry.find arch))
            src
        in
        let tests = run.Testgen.Oracle.result.Testgen.Explore.tests in
        (label, Digest.to_hex (Digest.string (Campaign.suite_fingerprint tests))))
      (contract_programs ())
  in
  let expected = List.map (fun (label, _, _, _, d) -> (label, d)) (contract_programs ()) in
  if got <> expected then
    Alcotest.failf "suites changed; new digests:\n%s"
      (String.concat "\n" (List.map (fun (l, d) -> Printf.sprintf "  %s %s" l d) got))

let () =
  Alcotest.run "regressions"
    [
      ( "corpus",
        Alcotest.test_case "corpus is non-empty" `Quick test_corpus_nonempty
        :: List.map
             (fun f -> Alcotest.test_case f `Quick (revalidate f))
             (regression_files ()) );
      ( "repro",
        [
          Alcotest.test_case "sequence repro names its packet count" `Quick
            test_sequence_repro_header;
        ] );
      ( "mutation",
        [ Alcotest.test_case "catalogue coverage" `Slow test_mutation_coverage ] );
      ( "contract",
        [ Alcotest.test_case "gen_large suites unchanged" `Slow test_suite_contract ] );
    ]
