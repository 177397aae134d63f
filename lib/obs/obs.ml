(* Telemetry: metric registries, hierarchical spans, trace export.

   A registry is single-domain mutable state, mirroring the ownership
   rule of term contexts: one run = one registry, merged as immutable
   snapshots by the batch driver.  This module is also the only place
   in the tree allowed to read the wall clock. *)

module Clock = struct
  let now () = Unix.gettimeofday ()
end

module Counter = struct
  type t = { mutable c : int }

  let incr t = t.c <- t.c + 1
  let add t n = t.c <- t.c + n
  let value t = t.c
end

module Gauge = struct
  type t = { mutable g : int }

  let set t n = t.g <- n
  let set_max t n = if n > t.g then t.g <- n
  let value t = t.g
end

module Timer = struct
  type t = { mutable s : float }

  let add t dt =
    if dt < 0.0 then invalid_arg "Obs.Timer.add: negative duration";
    t.s <- t.s +. dt

  let time t f =
    let t0 = Clock.now () in
    Fun.protect ~finally:(fun () -> t.s <- t.s +. (Clock.now () -. t0)) f

  let value t = t.s
end

module Snapshot = struct
  type value = Count of int | Level of int | Seconds of float

  (* name-sorted association list; small enough (tens of metrics) that
     list merges beat map overhead *)
  type t = (string * value) list

  let empty = []

  let combine name a b =
    match (a, b) with
    | Count x, Count y -> Count (x + y)
    | Level x, Level y -> Level (max x y)
    | Seconds x, Seconds y -> Seconds (x +. y)
    | _ -> invalid_arg ("Obs.Snapshot.merge: kind mismatch for " ^ name)

  let rec merge a b =
    match (a, b) with
    | [], s | s, [] -> s
    | (na, va) :: ta, (nb, vb) :: tb ->
        if na < nb then (na, va) :: merge ta b
        else if nb < na then (nb, vb) :: merge a tb
        else (na, combine na va vb) :: merge ta tb

  let subtract name a b =
    match (a, b) with
    | Count x, Count y -> Count (x - y)
    | Level x, Level _ -> Level x (* gauges do not subtract; keep [after] *)
    | Seconds x, Seconds y -> Seconds (x -. y)
    | _ -> invalid_arg ("Obs.Snapshot.diff: kind mismatch for " ^ name)

  let rec diff after before =
    match (after, before) with
    | s, [] -> s
    | [], _ -> []
    | (na, va) :: ta, (nb, vb) :: tb ->
        if na < nb then (na, va) :: diff ta before
        else if nb < na then diff after tb
        else (na, subtract na va vb) :: diff ta tb

  let to_list s = s

  (* a shared prefix keeps the names sorted *)
  let prefix p s = List.map (fun (n, v) -> (p ^ n, v)) s
  let counters s = List.filter_map (function n, Count c -> Some (n, c) | _ -> None) s

  let get_int s name =
    match List.assoc_opt name s with
    | Some (Count c) | Some (Level c) -> c
    | _ -> 0

  let get_float s name =
    match List.assoc_opt name s with Some (Seconds x) -> x | _ -> 0.0

  let pp ppf s =
    List.iter
      (fun (name, v) ->
        match v with
        | Count c -> Format.fprintf ppf "%-32s %12d@." name c
        | Level g -> Format.fprintf ppf "%-32s %12d  (high water)@." name g
        | Seconds t -> Format.fprintf ppf "%-32s %12.6fs@." name t)
      s

  let json_escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let add_json_value buf = function
    | Count c | Level c -> Buffer.add_string buf (string_of_int c)
    | Seconds t -> Buffer.add_string buf (Printf.sprintf "%.9f" t)

  let to_json s =
    let buf = Buffer.create 256 in
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        json_escape buf name;
        Buffer.add_string buf "\":";
        add_json_value buf v)
      s;
    Buffer.add_char buf '}';
    Buffer.contents buf
end

type metric =
  | MCounter of Counter.t
  | MGauge of Gauge.t
  | MTimer of Timer.t

type span = {
  sp_name : string;
  sp_ts : float;
  mutable sp_dur : float; (* negative while open *)
  sp_depth : int;
  sp_args : (string * string) list;
}

module Registry = struct
  type t = {
    metrics : (string, metric) Hashtbl.t;
    mutable span_log : span list; (* completed+open spans, newest first *)
    mutable depth : int;
    record_spans : bool;
  }

  let create ?(record_spans = true) () =
    { metrics = Hashtbl.create 64; span_log = []; depth = 0; record_spans }

  let cell t name make classify err =
    match Hashtbl.find_opt t.metrics name with
    | Some m -> (
        match classify m with
        | Some c -> c
        | None -> invalid_arg ("Obs.Registry: " ^ name ^ " is not a " ^ err))
    | None ->
        let c, m = make () in
        Hashtbl.add t.metrics name m;
        c

  let counter t name =
    cell t name
      (fun () ->
        let c = Counter.{ c = 0 } in
        (c, MCounter c))
      (function MCounter c -> Some c | _ -> None)
      "counter"

  let gauge t name =
    cell t name
      (fun () ->
        let g = Gauge.{ g = 0 } in
        (g, MGauge g))
      (function MGauge g -> Some g | _ -> None)
      "gauge"

  let timer t name =
    cell t name
      (fun () ->
        let tm = Timer.{ s = 0.0 } in
        (tm, MTimer tm))
      (function MTimer tm -> Some tm | _ -> None)
      "timer"

  let snapshot t =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | MCounter c -> Snapshot.Count (Counter.value c)
          | MGauge g -> Snapshot.Level (Gauge.value g)
          | MTimer tm -> Snapshot.Seconds (Timer.value tm)
        in
        (name, v) :: acc)
      t.metrics []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* fold an immutable reading back into live cells: counters and
     timers accumulate, gauges high-water (the dual of [Snapshot.merge]
     for a mutable target).  The selftest campaign uses it to account
     each case's run into its worker's registry. *)
  let absorb t (s : Snapshot.t) =
    List.iter
      (fun (name, v) ->
        match v with
        | Snapshot.Count c -> Counter.add (counter t name) c
        | Snapshot.Level g -> Gauge.set_max (gauge t name) g
        | Snapshot.Seconds x -> Timer.add (timer t name) x)
      (Snapshot.to_list s)

  let completed_spans t =
    List.rev (List.filter (fun sp -> sp.sp_dur >= 0.0) t.span_log)

  let spans t =
    List.map (fun sp -> (sp.sp_name, sp.sp_dur, sp.sp_depth)) (completed_spans t)
end

module Span = struct
  type t = span

  let enter (reg : Registry.t) ?(args = []) name =
    let sp =
      { sp_name = name; sp_ts = Clock.now (); sp_dur = -1.0; sp_depth = reg.depth; sp_args = args }
    in
    reg.depth <- reg.depth + 1;
    if reg.record_spans then reg.span_log <- sp :: reg.span_log;
    sp

  let exit (reg : Registry.t) sp =
    sp.sp_dur <- Clock.now () -. sp.sp_ts;
    reg.depth <- reg.depth - 1

  let with_ reg ?args name f =
    let sp = enter reg ?args name in
    Fun.protect ~finally:(fun () -> exit reg sp) f
end

module Trace = struct
  let buf_string buf s =
    Buffer.add_char buf '"';
    Snapshot.json_escape buf s;
    Buffer.add_char buf '"'

  let buf_args buf args =
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        buf_string buf k;
        Buffer.add_char buf ':';
        buf_string buf v)
      args;
    Buffer.add_char buf '}'

  let micros t = Printf.sprintf "%.1f" (t *. 1e6)

  (* rebase timestamps to the earliest span so traces open at t=0 *)
  let epoch tracks =
    List.fold_left
      (fun acc (_, reg) ->
        List.fold_left
          (fun acc sp -> min acc sp.sp_ts)
          acc
          (Registry.completed_spans reg))
      infinity tracks
    |> fun t -> if t = infinity then 0.0 else t

  let span_event buf ~t0 ~tid sp =
    Buffer.add_string buf "{\"ph\":\"X\",\"name\":";
    buf_string buf sp.sp_name;
    Buffer.add_string buf ",\"cat\":\"p4testgen\",\"pid\":0,\"tid\":";
    Buffer.add_string buf (string_of_int tid);
    Buffer.add_string buf ",\"ts\":";
    Buffer.add_string buf (micros (sp.sp_ts -. t0));
    Buffer.add_string buf ",\"dur\":";
    Buffer.add_string buf (micros sp.sp_dur);
    if sp.sp_args <> [] then begin
      Buffer.add_string buf ",\"args\":";
      buf_args buf sp.sp_args
    end;
    Buffer.add_char buf '}'

  let counter_event buf ~ts ~tid (name, v) =
    Buffer.add_string buf "{\"ph\":\"C\",\"name\":";
    buf_string buf name;
    Buffer.add_string buf ",\"pid\":0,\"tid\":";
    Buffer.add_string buf (string_of_int tid);
    Buffer.add_string buf ",\"ts\":";
    Buffer.add_string buf (micros ts);
    Buffer.add_string buf ",\"args\":{\"value\":";
    Snapshot.add_json_value buf v;
    Buffer.add_string buf "}}"

  let meta_event buf ~name ~tid label =
    Buffer.add_string buf "{\"ph\":\"M\",\"name\":";
    buf_string buf name;
    Buffer.add_string buf ",\"pid\":0,\"tid\":";
    Buffer.add_string buf (string_of_int tid);
    Buffer.add_string buf ",\"args\":{\"name\":";
    buf_string buf label;
    Buffer.add_string buf "}}"

  (* end of a track's activity, for placing its counter samples *)
  let track_end ~t0 reg =
    List.fold_left
      (fun acc sp -> max acc (sp.sp_ts -. t0 +. sp.sp_dur))
      0.0
      (Registry.completed_spans reg)

  let write_chrome oc tracks =
    let buf = Buffer.create 4096 in
    let t0 = epoch tracks in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first = ref true in
    let emit add =
      if !first then first := false else Buffer.add_string buf ",\n";
      add ()
    in
    emit (fun () -> meta_event buf ~name:"process_name" ~tid:0 "p4testgen");
    List.iteri
      (fun tid (label, reg) ->
        emit (fun () -> meta_event buf ~name:"thread_name" ~tid label);
        List.iter
          (fun sp -> emit (fun () -> span_event buf ~t0 ~tid sp))
          (Registry.completed_spans reg);
        let ts = track_end ~t0 reg in
        List.iter
          (fun entry -> emit (fun () -> counter_event buf ~ts ~tid entry))
          (Registry.snapshot reg))
      tracks;
    Buffer.add_string buf "]}\n";
    Out_channel.output_string oc (Buffer.contents buf)
end
