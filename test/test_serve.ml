(* Serve-subsystem tests: LRU cache semantics, fingerprint stability,
   structured preparation errors, streaming emission order, and the
   daemon end to end over a Unix socket — cold/warm cache behaviour,
   eviction, fingerprint-only probes, and concurrent clients whose
   responses must be bit-identical to single-shot [Oracle.generate]. *)

module Oracle = Testgen.Oracle
module Explore = Testgen.Explore
module Runtime = Testgen.Runtime
module Testspec = Testgen.Testspec

let v1model = Option.get (Targets.Registry.find "v1model")

(* tiny string helpers so the test does not pull in Str *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let replace_all hay needle by =
  let nn = String.length needle in
  let b = Buffer.create (String.length hay) in
  let rec go i =
    if i >= String.length hay then ()
    else if i + nn <= String.length hay && String.sub hay i nn = needle then begin
      Buffer.add_string b by;
      go (i + nn)
    end
    else begin
      Buffer.add_char b hay.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* LRU *)

let test_lru_eviction_order () =
  let l = Serve.Lru.create ~cap:2 in
  Alcotest.(check (option (pair string int))) "no eviction below cap" None
    (Serve.Lru.put l "a" 1);
  Alcotest.(check (option (pair string int))) "no eviction at cap" None
    (Serve.Lru.put l "b" 2);
  (* a is now least recently used; inserting c evicts it *)
  Alcotest.(check (option (pair string int))) "lru evicted" (Some ("a", 1))
    (Serve.Lru.put l "c" 3);
  Alcotest.(check (list string)) "mru first" [ "c"; "b" ] (Serve.Lru.keys l)

let test_lru_find_bumps_recency () =
  let l = Serve.Lru.create ~cap:2 in
  ignore (Serve.Lru.put l "a" 1);
  ignore (Serve.Lru.put l "b" 2);
  (* touching a makes b the eviction victim *)
  Alcotest.(check (option int)) "hit" (Some 1) (Serve.Lru.find l "a");
  Alcotest.(check (option (pair string int))) "victim is b" (Some ("b", 2))
    (Serve.Lru.put l "c" 3);
  Alcotest.(check (option int)) "a survived" (Some 1) (Serve.Lru.find l "a");
  (* mem must NOT count as a use *)
  let l2 = Serve.Lru.create ~cap:2 in
  ignore (Serve.Lru.put l2 "a" 1);
  ignore (Serve.Lru.put l2 "b" 2);
  Alcotest.(check bool) "mem sees a" true (Serve.Lru.mem l2 "a");
  Alcotest.(check (option (pair string int))) "mem did not bump a"
    (Some ("a", 1)) (Serve.Lru.put l2 "c" 3)

let test_lru_overwrite_and_remove () =
  let l = Serve.Lru.create ~cap:2 in
  ignore (Serve.Lru.put l "a" 1);
  ignore (Serve.Lru.put l "a" 10);
  Alcotest.(check int) "overwrite keeps one entry" 1 (Serve.Lru.length l);
  Alcotest.(check (option int)) "overwritten value" (Some 10) (Serve.Lru.find l "a");
  Serve.Lru.remove l "a";
  Alcotest.(check (option int)) "removed" None (Serve.Lru.find l "a");
  Alcotest.check_raises "cap 0 rejected"
    (Invalid_argument "Lru.create: cap must be >= 1") (fun () ->
      ignore (Serve.Lru.create ~cap:0))

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let fp arch src =
  match Oracle.fingerprint ~arch src with
  | Ok k -> k
  | Error e -> Alcotest.failf "fingerprint failed: %s" (Oracle.prepare_error_message e)

let test_fingerprint_whitespace_stable () =
  let base = Progzoo.Corpus.fig1a in
  (* whitespace and comments are lexer noise: the token stream — and
     so the cache key — must not move *)
  let noisy =
    "// a leading comment\n  \t\n"
    ^ String.concat "\n  " (String.split_on_char '\n' base)
    ^ "\n/* trailing\n   block comment */\n"
  in
  Alcotest.(check string) "reformatting keeps the key" (fp "v1model" base)
    (fp "v1model" noisy)

let test_fingerprint_sensitivity () =
  let base = Progzoo.Corpus.fig1a in
  let k = fp "v1model" base in
  (* any token change moves the key *)
  let edited = replace_all base "etype" "ethertype" in
  Alcotest.(check bool) "renaming an identifier moves the key" true
    (k <> fp "v1model" edited);
  (* the architecture is part of the key: the same source prepared for
     another target is a different cache entry *)
  Alcotest.(check bool) "arch is part of the key" true
    (k <> fp "tna" base);
  (* and a key is a stable function of (source, arch) *)
  Alcotest.(check string) "deterministic" k (fp "v1model" base)

let test_fingerprint_lex_error () =
  match Oracle.fingerprint ~arch:"v1model" "header { \x01" with
  | Ok _ -> Alcotest.fail "expected a lex error"
  | Error (Oracle.Parse_error _) -> ()
  | Error e ->
      Alcotest.failf "expected Parse_error, got %s" (Oracle.prepare_error_message e)

(* ------------------------------------------------------------------ *)
(* Structured preparation errors *)

let test_prepare_result_errors () =
  (match Oracle.prepare_result v1model "parser P(" with
  | Error (Oracle.Parse_error { line; _ }) ->
      Alcotest.(check bool) "position recorded" true (line >= 1)
  | Error e -> Alcotest.failf "wrong error: %s" (Oracle.prepare_error_message e)
  | Ok _ -> Alcotest.fail "parse must fail");
  (* lexical garbage surfaces as a positioned parse error too *)
  (match Oracle.prepare_result v1model "header h_t {\n  \x01" with
  | Error (Oracle.Parse_error { line; _ }) ->
      Alcotest.(check int) "lex error line" 2 line
  | Error e -> Alcotest.failf "wrong error: %s" (Oracle.prepare_error_message e)
  | Ok _ -> Alcotest.fail "lexing must fail");
  (* typing and runtime rejections map onto the remaining kinds *)
  Alcotest.(check string) "typecheck kind" "typecheck"
    (Oracle.prepare_error_kind (Oracle.Type_error "unknown field nope"));
  Alcotest.(check string) "exec kind" "exec"
    (Oracle.prepare_error_kind (Oracle.Arch_error "no main package"));
  Alcotest.(check string) "typed message" "type error: unknown field nope"
    (Oracle.prepare_error_message (Oracle.Type_error "unknown field nope"));
  (* the happy path still works and matches plain prepare *)
  match Oracle.prepare_result v1model Progzoo.Corpus.fig1a with
  | Ok p -> Alcotest.(check bool) "prepared" true (p.Oracle.prep_time >= 0.0)
  | Error e -> Alcotest.failf "unexpected: %s" (Oracle.prepare_error_message e)

let test_prepare_still_raises () =
  Alcotest.(check bool) "prepare raises on bad source" true
    (try
       ignore (Oracle.prepare v1model "parser P(");
       false
     with P4.Parser.Error _ -> true)

(* a cached prepared value must not grow with the runs that explore
   it: a cold daemon request prepares and explores with one registry,
   and neither that registry nor the run's term context may stay
   reachable from the value.  The query cache is off, so the store
   (the one part meant to grow) stays empty. *)
let test_prepared_keeps_no_run () =
  let r = Obs.Registry.create () in
  match Oracle.prepare_result ~obs:r v1model (Progzoo.Generators.middleblock ()) with
  | Error e -> Alcotest.failf "unexpected: %s" (Oracle.prepare_error_message e)
  | Ok p ->
      let words () = Obj.reachable_words (Obj.repr p) in
      let before = words () in
      let config =
        { Explore.default_config with Explore.max_tests = Some 50; query_cache = false }
      in
      let run = Oracle.explore_prepared ~config ~obs:r p in
      Alcotest.(check int) "50 tests" 50 (List.length run.Oracle.result.Explore.tests);
      Alcotest.(check int) "prepared size unchanged by the run" before (words ())

(* ------------------------------------------------------------------ *)
(* Streaming emission *)

(* the stream has the final order, no duplicates and no holes *)
let streaming_matches_final (label, src) =
  let streamed = ref [] in
  let config =
    {
      Explore.default_config with
      Explore.on_test = Some (fun t -> streamed := t :: !streamed);
    }
  in
  let run = Oracle.generate ~config v1model src in
  let final = List.map Testspec.to_string run.Oracle.result.Explore.tests in
  let seen = List.rev_map Testspec.to_string !streamed in
  Alcotest.(check (list string)) (label ^ ": streamed = final") final seen

let test_on_test_streaming () =
  List.iter streaming_matches_final
    [
      ("fig1a", Progzoo.Corpus.fig1a);
      ("up4", Progzoo.Generators.up4 ());
      ("middleblock_2acl", Progzoo.Generators.middleblock ~acl_stages:2 ());
    ]

(* ------------------------------------------------------------------ *)
(* The daemon, end to end *)

let with_daemon ?(cache_slots = 4) ?(workers = 2) f =
  let path = Filename.temp_file "p4tg-test" ".sock" in
  let ep = Serve.Wire.Unix_sock path in
  let server =
    Serve.Server.start
      {
        Serve.Server.endpoint = ep;
        cache_slots;
        workers;
        queue_cap = 16;
        default_deadline_ms = None;
      }
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      Alcotest.(check bool) "daemon up" true (Serve.Client.wait_ready ep);
      f server ep)

let with_server ?cache_slots ?workers f =
  with_daemon ?cache_slots ?workers (fun _ ep -> f ep)

let rpc ep rq =
  match Serve.Client.request ep rq with
  | Ok evs -> evs
  | Error msg -> Alcotest.failf "request failed: %s" msg

let gen_rq ?key ?source ?(seed = 1) ?(max_tests = None) () =
  {
    Serve.Wire.default_request with
    Serve.Wire.rq_arch = "v1model";
    rq_seed = seed;
    rq_max_tests = max_tests;
    rq_key = key;
    rq_source = source;
  }

let summary_exn evs =
  match Serve.Client.find_summary evs with
  | Some kvs -> kvs
  | None -> Alcotest.fail "no summary frame"

let sget evs k =
  match Serve.Client.summary_get (summary_exn evs) k with
  | Some v -> v
  | None -> Alcotest.failf "summary lacks %s" k

let tests_of evs =
  List.filter_map
    (function Serve.Wire.Test (_, body) -> Some body | _ -> None)
    evs

let obs_json_of evs =
  match
    List.find_map (function Serve.Wire.Obs j -> Some j | _ -> None) evs
  with
  | Some j -> j
  | None -> Alcotest.fail "no obs frame"

let test_server_cold_then_warm () =
  with_server (fun ep ->
      let src = Progzoo.Corpus.fig1a in
      let cold = rpc ep (gen_rq ~source:src ()) in
      Alcotest.(check string) "cold misses" "false" (sget cold "cache_hit");
      Alcotest.(check bool) "cold paid preparation" true
        (float_of_string (sget cold "prep_seconds") > 0.0);
      let warm = rpc ep (gen_rq ~source:src ()) in
      Alcotest.(check string) "warm hits" "true" (sget warm "cache_hit");
      Alcotest.(check string) "warm skipped preparation" "0.000000"
        (sget warm "prep_seconds");
      Alcotest.(check string) "same key" (sget cold "fingerprint")
        (sget warm "fingerprint");
      (* identical test streams *)
      Alcotest.(check (list string)) "cold = warm tests" (tests_of cold)
        (tests_of warm);
      (* the response obs carries per-request deltas of the server's
         cache counters: the warm request is one hit and zero misses
         (the miss belonged to the cold request's response) *)
      let j = obs_json_of warm in
      let has frag = Alcotest.(check bool) frag true (contains j frag) in
      has "\"serve.cache_hits\":1";
      has "\"serve.cache_misses\":0")

let test_server_hit_after_evict () =
  with_server ~cache_slots:1 (fun ep ->
      let a = Progzoo.Corpus.fig1a and b = Progzoo.Corpus.fig1b in
      let r1 = rpc ep (gen_rq ~source:a ()) in
      Alcotest.(check string) "a cold" "false" (sget r1 "cache_hit");
      (* b evicts a from the single slot *)
      let r2 = rpc ep (gen_rq ~source:b ()) in
      Alcotest.(check string) "b cold" "false" (sget r2 "cache_hit");
      let r3 = rpc ep (gen_rq ~source:a ()) in
      Alcotest.(check string) "a re-prepared after eviction" "false"
        (sget r3 "cache_hit");
      Alcotest.(check (list string)) "re-prepared tests identical"
        (tests_of r1) (tests_of r3);
      (* per-request delta: re-preparing a evicted b, one eviction
         attributable to this request (b's earlier eviction of a is
         reported on r2, not here) *)
      let j = obs_json_of r3 in
      Alcotest.(check bool) "evictions counted" true
        (contains j "\"serve.cache_evictions\":1"))

let test_server_fingerprint_probe () =
  with_server (fun ep ->
      let src = Progzoo.Corpus.fig1a in
      let key = fp "v1model" src in
      (* probing an empty cache by key alone cannot prepare *)
      let miss = rpc ep (gen_rq ~key ()) in
      (match Serve.Client.find_error miss with
      | Some ("unknown-fingerprint", _) -> ()
      | Some (k, m) -> Alcotest.failf "wrong error %s: %s" k m
      | None -> Alcotest.fail "expected unknown-fingerprint");
      (* prime, then the same key-only request is served warm *)
      let cold = rpc ep (gen_rq ~source:src ()) in
      Alcotest.(check string) "primed" "false" (sget cold "cache_hit");
      let by_key = rpc ep (gen_rq ~key ()) in
      Alcotest.(check string) "served by key" "true" (sget by_key "cache_hit");
      Alcotest.(check (list string)) "key-only = source tests" (tests_of cold)
        (tests_of by_key);
      (* remote fingerprint op agrees with the local computation *)
      let fpr =
        rpc ep
          {
            Serve.Wire.default_request with
            Serve.Wire.rq_op = Serve.Wire.Fingerprint;
            rq_arch = "v1model";
            rq_source = Some src;
          }
      in
      match
        List.find_map
          (function Serve.Wire.Okay k -> Some k | _ -> None)
          fpr
      with
      | Some k -> Alcotest.(check string) "server fingerprint = local" key k
      | None -> Alcotest.fail "no ok frame")

let test_server_prepare_error () =
  with_server (fun ep ->
      let evs = rpc ep (gen_rq ~source:"parser P(" ()) in
      (match Serve.Client.find_error evs with
      | Some ("parse", _) -> ()
      | Some (k, m) -> Alcotest.failf "wrong kind %s: %s" k m
      | None -> Alcotest.fail "expected a parse error frame");
      (* one bad program fails one request, not the daemon *)
      let ok = rpc ep (gen_rq ~source:Progzoo.Corpus.fig1a ()) in
      Alcotest.(check string) "daemon survived" "false" (sget ok "cache_hit"))

(* a program that parses and types but names an unknown control in its
   package is rejected when it is prepared, so it never enters the
   cache: the repeat request fails the same way and misses again *)
let test_server_uninstantiable_not_cached () =
  with_daemon (fun server ep ->
      let src =
        replace_all (Progzoo.Generators.middleblock ~acl_stages:2 ()) "E(), C(), D())"
          "E(), C(), Q())"
      in
      let exec_error evs =
        match Serve.Client.find_error evs with
        | Some ("exec", _) -> ()
        | Some (k, m) -> Alcotest.failf "wrong kind %s: %s" k m
        | None -> Alcotest.fail "expected an exec error frame"
      in
      exec_error (rpc ep (gen_rq ~source:src ()));
      exec_error (rpc ep (gen_rq ~source:src ()));
      let snap = Serve.Server.snapshot server in
      Alcotest.(check int) "no cache hit" 0 (Obs.Snapshot.get_int snap "serve.cache_hits");
      Alcotest.(check int) "two misses" 2 (Obs.Snapshot.get_int snap "serve.cache_misses"))

(* every concurrent client's streamed response must be bit-identical
   to a single-shot generate of the same program with the same seed:
   the cache shares midend artifacts, never exploration state *)
let test_server_concurrent_bit_identical () =
  let progs =
    [|
      ("fig1a", Progzoo.Corpus.fig1a);
      ("fig1b", Progzoo.Corpus.fig1b);
      ("up4", Progzoo.Generators.up4 ());
    |]
  in
  let expected =
    Array.map
      (fun (_, src) ->
        let run = Oracle.generate v1model src in
        let tests = run.Oracle.result.Explore.tests in
        let reg = Obs.Registry.create () in
        let be = Option.get (Backends.Registry.find "stf") in
        ( List.map Testspec.to_string tests,
          Backends.Registry.emit_observed ~obs:reg be tests ))
      progs
  in
  with_server ~workers:3 (fun ep ->
      let clients = 6 in
      let results =
        List.init clients (fun i ->
            Domain.spawn (fun () ->
                let _, src = progs.(i mod Array.length progs) in
                let rq =
                  {
                    (gen_rq ~source:src ()) with
                    Serve.Wire.rq_backend = Some "stf";
                  }
                in
                (i, Serve.Client.request ep rq)))
        |> List.map Domain.join
      in
      List.iter
        (fun (i, res) ->
          let name, _ = progs.(i mod Array.length progs) in
          match res with
          | Error msg -> Alcotest.failf "client %d (%s): %s" i name msg
          | Ok evs ->
              let want_tests, want_file = expected.(i mod Array.length progs) in
              Alcotest.(check (list string))
                (Printf.sprintf "client %d (%s) tests bit-identical" i name)
                want_tests (tests_of evs);
              let file =
                List.find_map
                  (function Serve.Wire.File (_, f) -> Some f | _ -> None)
                  evs
              in
              Alcotest.(check (option string))
                (Printf.sprintf "client %d (%s) back-end file identical" i name)
                (Some want_file) file)
        results)

(* a client that hangs up mid-stream costs the daemon nothing but a
   counted write error: the next connection is served normally *)
let test_server_client_hangup () =
  with_daemon ~workers:1 (fun server ep ->
      let fd = Serve.Client.connect ep in
      let src = Progzoo.Generators.middleblock ~acl_stages:2 () in
      Serve.Wire.write_frame fd
        (Serve.Wire.encode_request (gen_rq ~source:src ()));
      let rec first_test () =
        match Serve.Wire.read_frame fd with
        | None -> Alcotest.fail "stream ended before the first test"
        | Some payload -> (
            match Serve.Wire.decode_event payload with
            | Ok (Serve.Wire.Test _) -> ()
            | Ok _ -> first_test ()
            | Error msg -> Alcotest.failf "bad frame: %s" msg)
      in
      first_test ();
      Unix.close fd;
      (* one executor: this request is served only after the abandoned
         one has finished writing into the closed socket *)
      let next = rpc ep (gen_rq ~source:Progzoo.Corpus.fig1a ()) in
      Alcotest.(check (option (pair string string))) "next request error-free"
        None (Serve.Client.find_error next);
      Alcotest.(check bool) "next request served" true (tests_of next <> []);
      Alcotest.(check bool) "send errors counted" true
        (Obs.Snapshot.get_int (Serve.Server.snapshot server) "serve.send_errors"
        >= 1))

(* one raw request frame, read to [End] *)
let raw_rpc ep payload =
  let fd = Serve.Client.connect ep in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Serve.Wire.write_frame fd payload;
      let rec loop acc =
        match Serve.Wire.read_frame fd with
        | None -> List.rev acc
        | Some p -> (
            match Serve.Wire.decode_event p with
            | Ok Serve.Wire.End -> List.rev (Serve.Wire.End :: acc)
            | Ok ev -> loop (ev :: acc)
            | Error m -> Alcotest.failf "bad response frame: %s" m)
      in
      loop [])

let test_server_ignores_path_jobs () =
  (* clients built when requests carried a [path-jobs] line still get
     served: the key is unknown now, so it decodes to the same request
     and the daemon answers with the same suite *)
  let rq = gen_rq ~source:(Progzoo.Generators.up4 ()) () in
  let plain = Serve.Wire.encode_request rq in
  let magic_end = String.index plain '\n' + 1 in
  let with_pj =
    String.sub plain 0 magic_end ^ "path-jobs 3\n"
    ^ String.sub plain magic_end (String.length plain - magic_end)
  in
  Alcotest.(check bool) "payload carries the line" true (contains with_pj "\npath-jobs 3\n");
  (match Serve.Wire.decode_request with_pj with
  | Ok rq' -> Alcotest.(check bool) "decodes to the same request" true (rq = rq')
  | Error m -> Alcotest.failf "decode failed: %s" m);
  with_server (fun ep ->
      let base = rpc ep rq in
      let evs = raw_rpc ep with_pj in
      Alcotest.(check (option (pair string string))) "no error" None
        (Serve.Client.find_error evs);
      Alcotest.(check bool) "some tests" true (tests_of base <> []);
      Alcotest.(check (list string)) "same suite" (tests_of base) (tests_of evs))

let test_wire_roundtrip () =
  let rq =
    {
      Serve.Wire.rq_op = Serve.Wire.Generate;
      rq_arch = "tna";
      rq_backend = Some "ptf";
      rq_strategy = "cov";
      rq_seed = 42;
      rq_max_tests = Some 7;
      rq_max_paths = None;
      rq_seq_packets = 2;
      rq_deadline_ms = Some 1500;
      rq_key = None;
      rq_source = Some "control C() { apply {} }\n// body with\n\nblank lines\n";
    }
  in
  match Serve.Wire.(decode_request (encode_request rq)) with
  | Error m -> Alcotest.failf "roundtrip failed: %s" m
  | Ok rq' ->
      Alcotest.(check bool) "request roundtrips" true (rq = rq');
      let evs =
        [
          Serve.Wire.Test (3, "test {\n  body\n}");
          Serve.Wire.File ("stf", "packet 0 aa\n");
          Serve.Wire.Summary [ ("tests", "3"); ("cache_hit", "true") ];
          Serve.Wire.Obs "{\"a\": 1}";
          Serve.Wire.Error ("busy", "queue full");
          Serve.Wire.Okay "pong";
          Serve.Wire.End;
        ]
      in
      List.iter
        (fun ev ->
          match Serve.Wire.(decode_event (encode_event ev)) with
          | Ok ev' when ev = ev' -> ()
          | Ok _ -> Alcotest.fail "event changed in roundtrip"
          | Error m -> Alcotest.failf "event roundtrip failed: %s" m)
        evs

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "find bumps recency" `Quick test_lru_find_bumps_recency;
          Alcotest.test_case "overwrite + remove" `Quick test_lru_overwrite_and_remove;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "whitespace stable" `Quick test_fingerprint_whitespace_stable;
          Alcotest.test_case "sensitivity" `Quick test_fingerprint_sensitivity;
          Alcotest.test_case "lex error" `Quick test_fingerprint_lex_error;
        ] );
      ( "prepare_result",
        [
          Alcotest.test_case "structured errors" `Quick test_prepare_result_errors;
          Alcotest.test_case "prepare still raises" `Quick test_prepare_still_raises;
          Alcotest.test_case "a prepared program keeps nothing of its runs" `Quick
            test_prepared_keeps_no_run;
        ] );
      ( "streaming",
        [ Alcotest.test_case "on_test = final tests" `Quick test_on_test_streaming ] );
      ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip ] );
      ( "daemon",
        [
          Alcotest.test_case "cold then warm" `Quick test_server_cold_then_warm;
          Alcotest.test_case "hit after evict" `Quick test_server_hit_after_evict;
          Alcotest.test_case "fingerprint probe" `Quick test_server_fingerprint_probe;
          Alcotest.test_case "prepare error survives" `Quick test_server_prepare_error;
          Alcotest.test_case "uninstantiable program not cached" `Quick
            test_server_uninstantiable_not_cached;
          Alcotest.test_case "concurrent bit-identical" `Quick
            test_server_concurrent_bit_identical;
          Alcotest.test_case "path-jobs line ignored" `Quick
            test_server_ignores_path_jobs;
          Alcotest.test_case "client hangup counted" `Quick
            test_server_client_hangup;
        ] );
    ]
