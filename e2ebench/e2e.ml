(* The end-to-end benchmark: one command for generate, parallel
   generate, serve and selftest, with a per-layer trace.  See README.md.

     dune exec e2ebench/e2e.exe -- --workload W --seed N --seconds S --trace 0|1
     dune exec e2ebench/e2e.exe -- [--seed N] [--repeat K] [--trace 1] [--out F]

   With one --workload it runs that workload in this process (the serve
   daemon in a child) and prints, last, one JSON result line.  Without
   one it re-executes itself once per workload, so peak memory and GC
   state belong to one workload, and summarises the runs.  BENCHMARK.json
   at the working directory names the metrics, units and bounds. *)

open Common

let workloads = [ "gen_large"; "gen_parallel"; "serve_mix"; "selftest_campaign" ]

type spec = { name : string; unit_ : string; bound : float option }

type benchmark = { run_seconds : float; e2e_specs : spec list; layer_specs : spec list }

let load_benchmark () =
  let doc =
    try Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Sys_error msg -> failwith ("cannot read BENCHMARK.json: " ^ msg)
    | Json.Bad msg -> failwith ("BENCHMARK.json: " ^ msg)
  in
  let specs key =
    List.map
      (fun m ->
        {
          name = Json.to_str (Json.member "name" m);
          unit_ = Json.to_str (Json.member "unit" m);
          bound = Option.map (fun b -> Json.to_num (Some b)) (Json.member "bound" m);
        })
      (Json.to_list (Json.member key doc))
  in
  {
    run_seconds = Json.to_num (Json.member "run_seconds" doc);
    e2e_specs = specs "end_to_end";
    layer_specs = specs "per_layer";
  }

let run_workload name ~seed ~seconds ~traced ~trace_dir =
  match name with
  | "gen_large" -> Gen.run ~workload:name ~path_jobs:0 ~seed ~seconds ~traced ~trace_dir
  | "gen_parallel" -> Gen.run ~workload:name ~path_jobs:(nproc ()) ~seed ~seconds ~traced ~trace_dir
  | "serve_mix" -> Serve_mix.run ~workload:name ~seed ~seconds ~traced ~trace_dir
  | "selftest_campaign" -> Selftest_campaign.run ~workload:name ~seed ~seconds ~traced ~trace_dir
  | w -> failwith (Printf.sprintf "unknown workload %s (have: %s)" w (String.concat ", " workloads))

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit_) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.str name) (Json.num value)
              (Json.str unit_))
          metrics))

(* every metric BENCHMARK.json declares, in its order and units; a run
   whose checks failed may leave a metric without samples, reported as 0 *)
let select ~correct workload specs values =
  List.map
    (fun s ->
      match List.assoc_opt s.name values with
      | Some v when Float.is_finite v -> (s.name, v, s.unit_)
      | Some _ when not correct -> (s.name, 0.0, s.unit_)
      | Some _ -> failwith (Printf.sprintf "%s: metric %s is not a finite number" workload s.name)
      | None -> failwith (Printf.sprintf "%s: metric %s was not measured" workload s.name))
    specs

let write_out out line =
  Option.iter (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (line ^ "\n"))) out

let single bench ~workload ~seed ~seconds ~traced ~trace_dir ~out =
  let o = run_workload workload ~seed ~seconds ~traced ~trace_dir in
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) o.failures;
  Printf.printf "fail_frac %s %.6g (%d of %d)\n" workload
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  let correct = o.failed = 0 && o.failures = [] && o.attempted > 0 in
  let e2e = select ~correct workload bench.e2e_specs o.e2e in
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" n workload v u) e2e;
  let layers = if traced then select ~correct workload bench.layer_specs o.layers else [] in
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" n workload v u) layers;
  let line =
    result_line ~correct ~attempted:o.attempted ~failed:o.failed (if traced then layers else e2e)
  in
  write_out out line;
  print_endline line;
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* All workloads, each in a child process, K times *)

let child ~workload ~seed ~seconds ~traced ~trace_dir =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if traced then "1" else "0"); "--trace-dir"; trace_dir;
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       print_endline l;
       lines := l :: !lines
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  match !lines with
  | last :: _ -> (
      try Some (Json.parse last) with Json.Bad _ -> None)
  | [] -> None

let orchestrate bench ~seed ~seconds ~traced ~trace_dir ~repeat ~out =
  let runs = ref [] in
  for k = 1 to repeat do
    (* alternate the order so no workload always runs on a warm host *)
    let order = if k mod 2 = 1 then workloads else List.rev workloads in
    List.iter
      (fun w ->
        Printf.printf "# run %d/%d: %s\n%!" k repeat w;
        runs := (w, k, child ~workload:w ~seed ~seconds ~traced ~trace_dir) :: !runs)
      order
  done;
  let runs = List.rev !runs in
  let ok = ref true in
  let value doc name =
    match Json.member "metrics" doc with
    | Some m -> (match Json.member name m with Some v -> Some (Json.to_num (Json.member "value" v)) | None -> None)
    | None -> None
  in
  let attempted = ref 0 and failed = ref 0 and medians = ref [] in
  List.iter
    (fun (w, k, doc) ->
      match doc with
      | None ->
          ok := false;
          Printf.printf "FAIL %s run %d printed no result\n" w k
      | Some d ->
          attempted := !attempted + int_of_float (Json.to_num (Json.member "attempted" d));
          failed := !failed + int_of_float (Json.to_num (Json.member "failed" d));
          if Json.member "correct" d <> Some (Json.Bool true) then begin
            ok := false;
            Printf.printf "FAIL %s run %d: outputs incorrect\n" w k
          end)
    runs;
  let specs = if traced then bench.layer_specs else bench.e2e_specs in
  Printf.printf "%-14s %-18s %12s %12s %12s %9s %9s %7s\n" "metric" "workload" "median" "q1" "q3"
    "iqr/med" "spread" "bound";
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          let vs =
            List.filter_map
              (fun (w', _, doc) -> if w' = w then Option.bind doc (fun d -> value d s.name) else None)
              runs
          in
          if vs <> [] then begin
            let q1, med, q3 = quartiles vs in
            let lo = List.fold_left Float.min infinity vs and hi = List.fold_left Float.max neg_infinity vs in
            let rel x = if med <> 0.0 then Float.abs x /. Float.abs med else 0.0 in
            let spread = rel (hi -. lo) in
            (* set-up time is gated on its median only *)
            let over = match s.bound with Some b -> s.name <> "setup_s" && spread > b | None -> false in
            if over then ok := false;
            medians := (w ^ "/" ^ s.name, med, s.unit_) :: !medians;
            Printf.printf "%-14s %-18s %12.6g %12.6g %12.6g %8.1f%% %8.1f%% %7s%s\n" s.name w med q1 q3
              (100.0 *. rel (q3 -. q1))
              (100.0 *. spread)
              (match s.bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
              (if over then "  SPREAD ABOVE BOUND" else "")
          end)
        specs)
    workloads;
  let line = result_line ~correct:!ok ~attempted:!attempted ~failed:!failed (List.rev !medians) in
  write_out out line;
  print_endline line;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: e2e [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]\n\
    \           [--repeat K] [--out FILE]\n\
     workloads: gen_large, gen_parallel, serve_mix, selftest_campaign (default: all)";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | [ _; "--daemon"; sock ] -> Serve_mix.daemon sock
  | _ :: args -> (
      let workload = ref None and seed = ref 1 and seconds = ref None and traced = ref false in
      let trace_dir = ref "_e2e" and repeat = ref 1 and out = ref None in
      let int v = match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage () in
      let rec parse = function
        | "--workload" :: v :: tl -> workload := Some v; parse tl
        | "--seed" :: v :: tl -> seed := int v; parse tl
        | "--seconds" :: v :: tl ->
            (match float_of_string_opt v with Some s when s > 0.0 -> seconds := Some s | _ -> usage ());
            parse tl
        | "--trace" :: v :: tl -> traced := int v = 1; parse tl
        | "--trace-dir" :: v :: tl -> trace_dir := v; parse tl
        | "--repeat" :: v :: tl -> repeat := max 1 (int v); parse tl
        | "--out" :: v :: tl -> out := Some v; parse tl
        | [] -> ()
        | _ -> usage ()
      in
      parse args;
      try
        let bench = load_benchmark () in
        let seconds = Option.value !seconds ~default:bench.run_seconds in
        match !workload with
        | Some w when w <> "all" && !repeat = 1 ->
            single bench ~workload:w ~seed:!seed ~seconds ~traced:!traced ~trace_dir:!trace_dir ~out:!out
        | Some w when w <> "all" -> failwith "--repeat runs every workload; drop --workload"
        | _ ->
            orchestrate bench ~seed:!seed ~seconds ~traced:!traced ~trace_dir:!trace_dir ~repeat:!repeat
              ~out:!out
      with Failure msg | Sys_error msg | Json.Bad msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2)
  | [] -> usage ()
