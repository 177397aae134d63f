(* Per-layer metrics and the traced run's outputs.

   The layers are the repository's libraries.  They are measured from
   outside: bench-side Obs spans around each public call the workload
   makes, plus the counters and timers every run already reports into
   its Obs registry.  A traced run fills an accumulator with raw sums
   (registry snapshots, span totals as "span.<name>", bench-side sizes
   as "bench.<name>") and [derive] turns them into the per-layer
   catalogue of BENCHMARK.json. *)

open Common

(* the spans of [reg], summed by name into [acc] as "span.<name>" *)
let add_spans acc reg =
  List.iter (fun (name, dur, _) -> Acc.add acc ("span." ^ name) dur) (Obs.Registry.spans reg)

(* Metrics every workload measures in its own way and passes to
   [derive]. *)
let measured_by_workload = [ "sim.prepare_s"; "sim.run_suite_s"; "explore.stmt_cov_pct"; "trace.overhead_pct" ]

(* Counts and ratios of one workload's layer; they read 0 elsewhere.
   A time that applies to one workload only is printed by
   [print_diagnostics] instead, since a time that reads 0 on every run
   measures nothing. *)
let workload_counts = [ "serve.cache_hit_ratio"; "serve.evictions"; "serve.busy_rejections"; "selftest.cov1000" ]

(** [derive acc ~per ~specific]: totals in [acc] are divided by [per],
    the number of traced rounds (one pass over the workload's fixed
    composition), so counts repeat exactly between runs of the same
    seed; ratios and means are not divided.  [specific] holds every
    name of [measured_by_workload] and those of [workload_counts] that
    apply. *)
let derive acc ~per ~specific =
  let g = Acc.get acc in
  let pr x = x /. per in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let total = g "explore.total_time" and step = g "explore.t_step" and emit = g "explore.t_emit" in
  let slices = g "qcache.slices" and avoided = g "qcache.solver_checks_avoided" in
  let bytes = g "bench.emit_bytes" in
  let given k =
    match List.assoc_opt k specific with Some v -> v | None -> failwith ("per-layer metric " ^ k ^ " was not measured")
  in
  [
    ("p4.parse_s", pr (g "span.parse"));
    ("p4.passes_s", pr (g "span.passes"));
    ("p4.fingerprint_ms", 1e3 *. ratio (g "bench.fingerprint_s") (g "bench.fingerprint_calls"));
    ("oracle.prepare_s", pr (g "oracle.prep_time"));
    ("oracle.instantiate_ms", 1e3 *. ratio (g "bench.instantiate_s") (g "bench.instantiate_calls"));
    ("explore.total_s", pr total);
    ("explore.step_s", pr step);
    ("explore.emit_s", pr emit);
    ("explore.other_s", pr (total -. step -. emit));
    ("explore.paths", pr (g "explore.paths"));
    ("explore.infeasible", pr (g "explore.infeasible"));
    ( "explore.useful_ratio",
      ratio (g "explore.tests") (g "explore.paths" +. g "explore.infeasible" +. g "explore.abandoned") );
    ("explore.subtrees", pr (g "explore.subtrees"));
    ("explore.steals", pr (g "explore.steals"));
    ("concolic.s", pr (g "concolic.time"));
    ("concolic.resolved", pr (g "concolic.resolved"));
    ("qcache.slices", pr slices);
    ("qcache.avoided", pr avoided);
    ("qcache.hit_ratio", ratio avoided slices);
    ("qcache.unsat_hits", pr (g "qcache.unsat_hits"));
    ("solver.checks", pr (g "solver.checks"));
    ("solver.s", pr (g "solver.time"));
    ("solver.rebuilds", pr (g "solver.rebuilds"));
    ("sat.propagations", pr (g "sat.propagations"));
    ("sat.conflicts", pr (g "sat.conflicts"));
    ("blast.hit_ratio", ratio (g "blast.cache_hits") (g "blast.cache_hits" +. g "blast.cache_misses"));
    ("backends.emit_s", pr (g "backend.emit_time"));
    ("backends.bytes", pr bytes);
    ("backends.bytes_per_test", ratio bytes (g "backend.tests_emitted"));
    ("gc.minor_mwords", pr (g "gc.minor_words") /. 1e6);
    ("gc.major_collections", pr (g "gc.major_collections"));
    ("gc.top_heap_mb", g "gc.top_heap_mb");
  ]
  @ List.map (fun k -> (k, given k)) measured_by_workload
  @ List.map (fun k -> (k, Option.value ~default:0.0 (List.assoc_opt k specific))) workload_counts

(* per-layer times of one workload only: printed, not in the result *)
let print_diagnostics workload rows =
  List.iter (fun (name, value, unit_) -> Printf.printf "# %s %s %.6g %s\n" workload name value unit_) rows

(* GC activity of [f] on the calling domain's heap, into [acc] *)
let gc_measured acc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  Acc.add acc "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  Acc.add acc "gc.major_collections" (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  Hashtbl.replace acc "gc.top_heap_mb"
    (float_of_int (s1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  r

(* bench-side timing of the front-end entry points serve and the
   campaign pay per program: [Oracle.fingerprint] and
   [Oracle.instantiate] over the workload's distinct sources *)
let time_front_end ?(reps = 5) acc reg (sources : (string * string) list) =
  List.iter
    (fun (arch, src) ->
      let p = Testgen.Oracle.prepare (target_of arch) src in
      for _ = 1 to reps do
        let t0 = now () in
        ignore (Obs.Span.with_ reg "Oracle.fingerprint" (fun () -> Testgen.Oracle.fingerprint ~arch src));
        let t1 = now () in
        ignore (Obs.Span.with_ reg "Oracle.instantiate" (fun () -> Testgen.Oracle.instantiate p));
        let t2 = now () in
        Acc.add acc "bench.fingerprint_s" (t1 -. t0);
        Acc.add acc "bench.instantiate_s" (t2 -. t1)
      done;
      Acc.add acc "bench.fingerprint_calls" (float_of_int reps);
      Acc.add acc "bench.instantiate_calls" (float_of_int reps))
    sources

(* ------------------------------------------------------------------ *)
(* Span tables *)

(* each span of [reg] with the time its direct children cover.  Spans
   come oldest-first with their nesting depth, so a span's parent is the
   closest earlier span one level up. *)
let with_children reg =
  let spans = Array.of_list (Obs.Registry.spans reg) in
  let child = Array.make (Array.length spans) 0.0 in
  let stack = ref [] in
  Array.iteri
    (fun i (_, dur, depth) ->
      while match !stack with (_, d) :: _ -> d >= depth | [] -> false do
        stack := List.tl !stack
      done;
      (match !stack with (p, _) :: _ -> child.(p) <- child.(p) +. dur | [] -> ());
      stack := (i, depth) :: !stack)
    spans;
  Array.to_list (Array.mapi (fun i (name, dur, _) -> (name, dur, child.(i))) spans)

type span_row = { count : int; total : float; self : float; durs : float list }

(* per span name: count, total, self time (the span minus its direct
   children) and durations, largest total first *)
let span_rows tracks =
  let rows : (string, span_row) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (_, reg) ->
      List.iter
        (fun (name, dur, child) ->
          let r =
            Option.value (Hashtbl.find_opt rows name) ~default:{ count = 0; total = 0.0; self = 0.0; durs = [] }
          in
          Hashtbl.replace rows name
            { count = r.count + 1; total = r.total +. dur; self = r.self +. (dur -. child); durs = dur :: r.durs })
        (with_children reg))
    tracks;
  List.sort (fun (_, a) (_, b) -> compare b.total a.total) (List.of_seq (Hashtbl.to_seq rows))

let print_span_table workload tracks =
  Printf.printf "# %s per-layer spans: %-34s %8s %11s %11s %10s\n" workload "span" "count" "total_s"
    "self_s" "p50_ms";
  List.iter
    (fun (name, r) ->
      Printf.printf "# %s per-layer spans: %-34s %8d %11.4f %11.4f %10.3f\n" workload name r.count r.total
        r.self (1e3 *. median r.durs))
    (span_rows tracks)

(* the smallest share, in percent, of an [op] span's wall-clock that its
   direct children cover *)
let span_coverage_pct tracks ~op =
  List.fold_left
    (fun acc (_, reg) ->
      List.fold_left
        (fun acc (name, dur, child) -> if name = op && dur > 0.0 then Float.min acc (100.0 *. child /. dur) else acc)
        acc (with_children reg))
    100.0 tracks

let write_trace dir workload tracks =
  mkdir_p dir;
  let file = Filename.concat dir (workload ^ ".trace.json") in
  Out_channel.with_open_text file (fun oc -> Obs.Trace.write_chrome oc tracks);
  Printf.printf "# %s: wrote %s\n" workload file
