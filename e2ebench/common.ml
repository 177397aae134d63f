(* Shared pieces of the end-to-end benchmark: the record every workload
   returns, seeded input helpers, order statistics, process probes and
   a small JSON reader. *)

(* Metric values by name; names and units are declared once, in
   BENCHMARK.json *)
type outcome = {
  attempted : int;  (** timed operations: tests, requests or cases *)
  failed : int;  (** operations whose output failed a check *)
  failures : string list;  (** one line per failed check, naming its input *)
  e2e : (string * float) list;
  layers : (string * float) list;  (** per-layer metrics; empty on untraced runs *)
}

let now = Obs.Clock.now

(* Every workload fixes what it runs (its programs, request mix or case
   pool) and lets the seed choose the order, the oracle's input seeds,
   the back ends and the arrival times.  The spread between seeds then
   stays inside the metrics' bounds, so the same bound serves every
   seed. *)
let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let oracle_seed st = 1 + Random.State.int st 0x3FFFFFF

let target_of arch = Option.get (Targets.Registry.find arch)

(* Replays [tests] on the independent simulator: (prepare seconds, run
   seconds, tests that did not pass) *)
let replay ~seed ~arch src tests =
  let t0 = now () in
  let sim = Sim.Harness.prepare ~seed ~arch src in
  let t1 = now () in
  let summary, _ = Sim.Harness.run_suite sim tests in
  (t1 -. t0, now () -. t1, summary.Sim.Harness.total - summary.Sim.Harness.passed)

let suite_digest tests =
  Digest.to_hex
    (Digest.string (String.concat "\n--\n" (List.map Testgen.Testspec.to_string tests)))

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so the spreads printed by [--repeat] are the ones an outside
   checker computes from the same values. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs, median xs)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* nearest-rank percentile; [p] in percent *)
let percentile xs p =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let beyond n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

(** The highest whole percentile with at least ten of [n] samples above
    it, or [None] when [n < 11]. *)
let tail_level n =
  let rec go p = if p < 50 then None else if beyond n (float_of_int p) >= 10 then Some p else go (p - 1) in
  go 99

type tail = { level : int; value : float; n : int; above : int }

(** The latency tail of [xs] at the workload's fixed [level], lowered to
    {!tail_level} when the run is too short for ten samples above it.
    Each workload fixes its level from the sample count of a standard
    run, so the percentile compared between runs stays the same. *)
let tail ~level xs =
  let n = List.length xs in
  let level = match tail_level n with Some m -> min level m | None -> 50 in
  { level; value = percentile xs (float_of_int level); n; above = beyond n (float_of_int level) }

(* ------------------------------------------------------------------ *)
(* Process probes *)

let nproc () = max 1 (Domain.recommended_domain_count ())

(* peak resident set (VmHWM) of this process, in MiB; the OCaml heap's
   high-water mark where /proc is missing *)
let self_peak_rss_mb () =
  let from_proc =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> None
    | s ->
        List.find_map
          (fun l ->
            match String.split_on_char ':' l with
            | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
            | _ -> None)
          (String.split_on_char '\n' s)
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* ------------------------------------------------------------------ *)
(* Float accumulators, filled from Obs snapshots, serve responses and
   bench-side timers *)

module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add (t : t) k v = Hashtbl.replace t k (get t k +. v)

  (* counters and timers sum; gauges are high-water marks, which no
     per-layer metric reads *)
  let add_snapshot t s =
    List.iter
      (fun (k, v) ->
        match v with
        | Obs.Snapshot.Count c -> add t k (float_of_int c)
        | Obs.Snapshot.Seconds x -> add t k x
        | Obs.Snapshot.Level _ -> ())
      (Obs.Snapshot.to_list s)
end

(* ------------------------------------------------------------------ *)
(* A small JSON reader: BENCHMARK.json, the result line of a child run
   and the metric snapshots the serve daemon sends *)

module Json = struct
  type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s and pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let rec ws () = if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; ws ()) in
    let expect c = if peek () = c then incr pos else raise (Bad (Printf.sprintf "expected %c at %d" c !pos)) in
    let str () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        let c = s.[!pos] in
        incr pos;
        match c with
        | '"' -> ()
        | '\\' ->
            let e = peek () in
            incr pos;
            (match e with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' ->
                Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s !pos 4) land 0xff));
                pos := !pos + 4
            | c -> Buffer.add_char b c);
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec value () =
      ws ();
      match peek () with
      | '{' ->
          incr pos;
          ws ();
          if peek () = '}' then (incr pos; Obj [])
          else
            let rec members acc =
              ws ();
              let k = str () in
              ws ();
              expect ':';
              let v = value () in
              ws ();
              if peek () = ',' then (incr pos; members ((k, v) :: acc))
              else (expect '}'; Obj (List.rev ((k, v) :: acc)))
            in
            members []
      | '[' ->
          incr pos;
          ws ();
          if peek () = ']' then (incr pos; Arr [])
          else
            let rec elements acc =
              let v = value () in
              ws ();
              if peek () = ',' then (incr pos; elements (v :: acc))
              else (expect ']'; Arr (List.rev (v :: acc)))
            in
            elements []
      | '"' -> Str (str ())
      | 't' -> pos := !pos + 4; Bool true
      | 'f' -> pos := !pos + 5; Bool false
      | 'n' -> pos := !pos + 4; Null
      | _ ->
          let start = !pos in
          while !pos < n && String.contains "0123456789+-.eE" s.[!pos] do incr pos done;
          (match float_of_string_opt (String.sub s start (!pos - start)) with
          | Some f -> Num f
          | None -> raise (Bad (Printf.sprintf "bad value at %d" start)))
    in
    let v = value () in
    ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing data at %d" !pos));
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_num = function Some (Num f) -> f | _ -> raise (Bad "expected a number")
  let to_str = function Some (Str s) -> s | _ -> raise (Bad "expected a string")
  let to_list = function Some (Arr l) -> l | _ -> raise (Bad "expected an array")

  (* every value is printed with all its digits *)
  let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

  let str s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
end
