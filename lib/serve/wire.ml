(* The serve wire protocol: length-prefixed frames over a byte stream.

   Every frame is a 4-byte big-endian payload length followed by the
   payload.  Payloads are text: a header line, then (depending on the
   tag) `key value` lines and/or a raw body.  The framing is the only
   thing a client must implement exactly; the payloads are line
   oriented so `nc`-level scripting stays possible.

   Request (one frame, client -> server):

     p4tg1 <op>                     op = generate | fingerprint | ping
                                         | flush | shutdown
     <key> <value>                  zero or more option lines
     <blank line>
     <P4 source>                    optional body (rest of the frame)

   Response (a stream of frames, server -> client), first token tags
   the frame:

     test <n>      one accepted test, streamed as its path closes;
                   body = the abstract testspec text
     file <be>     body = the rendered back-end file (when requested)
     summary       `key value` lines: tests, paths, coverage_pct,
                   cache_hit, prep_seconds, wall_seconds, fingerprint,
                   timed_out
     obs           body = the request's metric snapshot as JSON
     error <kind>  kind = parse | typecheck | exec | protocol | busy
                        | unknown-fingerprint | shutdown; body = message
     ok            body = op-specific payload (pong, the fingerprint,
                   ...)
     end           request complete; the server closes after it *)

exception Protocol_error of string

let max_frame = 64 * 1024 * 1024
(* a frame larger than this is a protocol error, not an allocation *)

(* ------------------------------------------------------------------ *)
(* Framing *)

let really_write fd (s : string) =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    let k = Unix.write_substring fd s !off (n - !off) in
    if k <= 0 then raise (Protocol_error "short write");
    off := !off + k
  done

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then raise (Protocol_error "frame too large");
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (n land 0xff);
  really_write fd (Bytes.to_string hdr);
  really_write fd payload

(* [None] on a clean EOF at a frame boundary; raises mid-frame *)
let read_frame fd : string option =
  let really_read buf off len =
    let got = ref 0 in
    (try
       while !got < len do
         let k = Unix.read fd buf (off + !got) (len - !got) in
         if k = 0 then raise Exit;
         got := !got + k
       done
     with Exit -> ());
    !got
  in
  let hdr = Bytes.create 4 in
  match really_read hdr 0 4 with
  | 0 -> None
  | 4 ->
      let b i = Bytes.get_uint8 hdr i in
      let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if n > max_frame then raise (Protocol_error "frame too large");
      let payload = Bytes.create n in
      if really_read payload 0 n < n then
        raise (Protocol_error "truncated frame");
      Some (Bytes.to_string payload)
  | _ -> raise (Protocol_error "truncated frame header")

(* ------------------------------------------------------------------ *)
(* Requests *)

type op = Generate | Fingerprint | Ping | Flush | Shutdown

type request = {
  rq_op : op;
  rq_arch : string;
  rq_backend : string option;  (* also stream the rendered file *)
  rq_strategy : string;  (* dfs | rnd | cov *)
  rq_seed : int;
  rq_max_tests : int option;
  rq_max_paths : int option;
  rq_seq_packets : int;
  rq_deadline_ms : int option;  (* measured from admission *)
  rq_key : string option;  (* probe by fingerprint, no source shipped *)
  rq_source : string option;
}

let default_request =
  {
    rq_op = Generate;
    rq_arch = "v1model";
    rq_backend = None;
    rq_strategy = "dfs";
    rq_seed = 1;
    rq_max_tests = None;
    rq_max_paths = None;
    rq_seq_packets = 1;
    rq_deadline_ms = None;
    rq_key = None;
    rq_source = None;
  }

let string_of_op = function
  | Generate -> "generate"
  | Fingerprint -> "fingerprint"
  | Ping -> "ping"
  | Flush -> "flush"
  | Shutdown -> "shutdown"

let op_of_string = function
  | "generate" -> Some Generate
  | "fingerprint" -> Some Fingerprint
  | "ping" -> Some Ping
  | "flush" -> Some Flush
  | "shutdown" -> Some Shutdown
  | _ -> None

(* split "key value..." at the first space; value may itself contain
   spaces *)
let split_kv line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )

let encode_request (r : request) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b ("p4tg1 " ^ string_of_op r.rq_op ^ "\n");
  let kv k v = Buffer.add_string b (k ^ " " ^ v ^ "\n") in
  let kvo k = function Some v -> kv k v | None -> () in
  kv "arch" r.rq_arch;
  kvo "backend" r.rq_backend;
  kv "strategy" r.rq_strategy;
  kv "seed" (string_of_int r.rq_seed);
  kvo "max-tests" (Option.map string_of_int r.rq_max_tests);
  kvo "max-paths" (Option.map string_of_int r.rq_max_paths);
  kv "seq-packets" (string_of_int r.rq_seq_packets);
  kvo "deadline-ms" (Option.map string_of_int r.rq_deadline_ms);
  kvo "fingerprint" r.rq_key;
  Buffer.add_char b '\n';
  (match r.rq_source with Some s -> Buffer.add_string b s | None -> ());
  Buffer.contents b

let decode_request (payload : string) : (request, string) result =
  (* header section = lines up to the first blank line; body = the rest *)
  let body_at =
    let rec find i =
      match String.index_from_opt payload i '\n' with
      | None -> None
      | Some j ->
          if j + 1 <= String.length payload && j = i then Some (j + 1)
          else find (j + 1)
    in
    (* a blank line is a '\n' immediately following a '\n' (or a
       leading '\n'); [find] spots it by a line of width zero *)
    find 0
  in
  let header, body =
    match body_at with
    | Some i ->
        ( String.sub payload 0 (i - 1),
          Some (String.sub payload i (String.length payload - i)) )
    | None -> (payload, None)
  in
  match String.split_on_char '\n' header with
  | [] -> Error "empty request"
  | magic :: opts -> (
      match split_kv magic with
      | "p4tg1", opname -> (
          match op_of_string opname with
          | None -> Error ("unknown op " ^ opname)
          | Some op -> (
              let r =
                ref
                  {
                    default_request with
                    rq_op = op;
                    rq_source =
                      (match body with Some "" | None -> None | s -> s);
                  }
              in
              let bad = ref None in
              let int_of k v f =
                match int_of_string_opt v with
                | Some i -> f i
                | None -> bad := Some (Printf.sprintf "bad integer %s for %s" v k)
              in
              List.iter
                (fun line ->
                  if line <> "" then
                    let k, v = split_kv line in
                    match k with
                    | "arch" -> r := { !r with rq_arch = v }
                    | "backend" -> r := { !r with rq_backend = Some v }
                    | "strategy" -> r := { !r with rq_strategy = v }
                    | "seed" -> int_of k v (fun i -> r := { !r with rq_seed = i })
                    | "max-tests" ->
                        int_of k v (fun i -> r := { !r with rq_max_tests = Some i })
                    | "max-paths" ->
                        int_of k v (fun i -> r := { !r with rq_max_paths = Some i })
                    | "seq-packets" ->
                        int_of k v (fun i -> r := { !r with rq_seq_packets = i })
                    | "deadline-ms" ->
                        int_of k v (fun i ->
                            r := { !r with rq_deadline_ms = Some i })
                    | "fingerprint" -> r := { !r with rq_key = Some v }
                    | _ ->
                        (* unknown keys are ignored: old servers accept
                           new clients' hints *)
                        ())
                opts;
              match !bad with Some m -> Error m | None -> Ok !r))
      | _ -> Error "bad magic (expected p4tg1)")

(* ------------------------------------------------------------------ *)
(* Response events *)

type event =
  | Test of int * string  (* 1-based index, testspec text *)
  | File of string * string  (* back end name, rendered content *)
  | Summary of (string * string) list
  | Obs of string  (* metric snapshot, JSON *)
  | Error of string * string  (* kind, message *)
  | Okay of string
  | End

let encode_event : event -> string = function
  | Test (n, body) -> Printf.sprintf "test %d\n%s" n body
  | File (be, body) -> Printf.sprintf "file %s\n%s" be body
  | Summary kvs ->
      "summary\n"
      ^ String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") kvs)
  | Obs json -> "obs\n" ^ json
  | Error (kind, msg) -> Printf.sprintf "error %s\n%s" kind msg
  | Okay body -> "ok\n" ^ body
  | End -> "end\n"

let decode_event (payload : string) : (event, string) result =
  let head, body =
    match String.index_opt payload '\n' with
    | None -> (payload, "")
    | Some i ->
        ( String.sub payload 0 i,
          String.sub payload (i + 1) (String.length payload - i - 1) )
  in
  match split_kv head with
  | "test", n -> (
      match int_of_string_opt n with
      | Some n -> Ok (Test (n, body))
      | None -> Error ("bad test index " ^ n))
  | "file", be -> Ok (File (be, body))
  | "summary", _ ->
      Ok
        (Summary
           (List.filter_map
              (fun l -> if l = "" then None else Some (split_kv l))
              (String.split_on_char '\n' body)))
  | "obs", _ -> Ok (Obs body)
  | "error", kind -> Ok (Error (kind, body))
  | "ok", _ -> Ok (Okay body)
  | "end", _ -> Ok End
  | tag, _ -> Error ("unknown frame tag " ^ tag)

let write_event fd ev = write_frame fd (encode_event ev)

(* ------------------------------------------------------------------ *)
(* Endpoints — defined for callers via [Stdlib.result]; note the event
   type above shadows [Error], hence the qualified constructors here *)

type endpoint = Unix_sock of string | Tcp of string * int

let string_of_endpoint = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* "unix:PATH" | "tcp:HOST:PORT"; a bare string is a socket path, or
   HOST:PORT when the suffix parses as a port *)
let endpoint_of_string s : (endpoint, string) result =
  let tcp spec =
    match String.rindex_opt spec ':' with
    | None -> Stdlib.Error ("bad tcp endpoint " ^ spec ^ " (want HOST:PORT)")
    | Some i -> (
        let host = String.sub spec 0 i in
        let port = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
            Stdlib.Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Stdlib.Error ("bad port in endpoint " ^ spec))
  in
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Stdlib.Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    tcp (String.sub s 4 (String.length s - 4))
  else
    match tcp s with
    | Stdlib.Ok _ as e -> e
    | Stdlib.Error _ -> Stdlib.Ok (Unix_sock s)

let sockaddr_of_endpoint = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ -> Unix.inet_addr_loopback
      in
      Unix.ADDR_INET (addr, port)

