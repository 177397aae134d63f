(* Bounded corpus of "interesting" programs for the coverage-guided
   self-validation campaign (ROADMAP item 3).

   A program earns a corpus slot when its differential run reached
   oracle code nobody else reached — new statement-shape or path-shape
   coverage keys (from [Explore.coverage_keys], canonicalized so keys
   compare across independently generated programs) — or when it
   exhibits a feature-tag combination ([Progzoo.Randprog] tags) not
   seen before.  Admission appends to a ring: when the ring is full
   the oldest member is evicted, and members age out after being used
   as a mutation base [max_mutations] times, except that the corpus
   never shrinks below [min_size] (a floor of proven-interesting seeds
   keeps the mutator fed even when novelty dries up).

   The whole corpus — ring, ages, tags, the accumulated coverage-key
   set, and the cumulative campaign counters — persists to disk in a
   versioned text format so campaigns resume and accumulate across
   runs.  Serialization is canonical (sets written sorted, sources
   length-prefixed), so state → save → load → save is byte-identical;
   the resume bit-identity test leans on this.  Any format change must
   bump [version] (an old-version file is ignored, not migrated: the
   corpus is a cache, correctness never depends on its contents). *)

module ISet = Set.Make (Int)
module SSet = Set.Make (String)

let version = 1

let magic = Printf.sprintf "p4tg-corpus-v%d" version

type entry = {
  id : int;  (** unique within a corpus lifetime, monotonically assigned *)
  src : string;
  arch : string;
  tags : string list;  (** sorted feature tags *)
  novelty : int;  (** coverage keys this entry contributed at admission *)
  mutations : int;  (** times used as a mutation base (the age) *)
}

type t = {
  max_size : int;
  min_size : int;
  max_mutations : int;
  mutable ring : entry list;  (** oldest first *)
  mutable next_id : int;
  mutable seen : ISet.t;  (** all coverage keys ever observed *)
  mutable combos : SSet.t;  (** arch-qualified feature-tag combinations *)
  (* cumulative counters, persisted so a resumed campaign reports
     totals over its whole life, not since the last restart *)
  mutable admits : int;
  mutable evictions : int;
  mutable coverage_novelty : int;  (** total new keys contributed by admits *)
  mutable mutations_total : int;
  mutable splice_sources : int;  (** donor draws for splice mutations *)
  mutable cases_seen : int;
}

let create ?(max_size = 64) ?(min_size = 8) ?(max_mutations = 24) () =
  if min_size > max_size then invalid_arg "Corpus.create: min_size > max_size";
  {
    max_size;
    min_size;
    max_mutations;
    ring = [];
    next_id = 0;
    seen = ISet.empty;
    combos = SSet.empty;
    admits = 0;
    evictions = 0;
    coverage_novelty = 0;
    mutations_total = 0;
    splice_sources = 0;
    cases_seen = 0;
  }

let size t = List.length t.ring

let combo_key ~arch tags = arch ^ ":" ^ String.concat "," (List.sort_uniq compare tags)

(** [observe t ~src ~arch ~tags ~keys] records one evaluated case.
    Admits [src] into the ring iff it contributed coverage novelty or
    a new feature-tag combination; returns [true] on admission. *)
let observe t ~src ~arch ~tags ~keys =
  t.cases_seen <- t.cases_seen + 1;
  let fresh = ISet.diff keys t.seen in
  let novelty = ISet.cardinal fresh in
  let combo = combo_key ~arch tags in
  let new_combo = not (SSet.mem combo t.combos) in
  t.seen <- ISet.union t.seen keys;
  t.combos <- SSet.add combo t.combos;
  if novelty = 0 && not new_combo then false
  else begin
    let e =
      {
        id = t.next_id;
        src;
        arch;
        tags = List.sort_uniq compare tags;
        novelty;
        mutations = 0;
      }
    in
    t.next_id <- t.next_id + 1;
    t.ring <- t.ring @ [ e ];
    t.admits <- t.admits + 1;
    t.coverage_novelty <- t.coverage_novelty + novelty;
    if List.length t.ring > t.max_size then begin
      t.ring <- List.tl t.ring;
      t.evictions <- t.evictions + 1
    end;
    true
  end

(** Uniform draw of a mutation base.  Deterministic in [rng]. *)
let sample t (rng : Random.State.t) : entry option =
  match t.ring with
  | [] -> None
  | ring -> Some (List.nth ring (Random.State.int rng (List.length ring)))

(** Called by the campaign when a splice mutator actually drew from a
    donor entry. *)
let note_splice t = t.splice_sources <- t.splice_sources + 1

(** The ring, oldest first, for callers that need filtered sampling
    (e.g. arch-compatible bases). *)
let entries t = t.ring

(** Bump the age of entry [id]; retire it once it has seeded
    [max_mutations] mutants — unless that would drop the corpus below
    the minimum-size floor. *)
let note_mutation t ~id =
  t.mutations_total <- t.mutations_total + 1;
  t.ring <-
    List.map (fun e -> if e.id = id then { e with mutations = e.mutations + 1 } else e) t.ring;
  let aged e = e.id = id && e.mutations > t.max_mutations in
  if List.exists aged t.ring && size t > t.min_size then begin
    t.ring <- List.filter (fun e -> not (aged e)) t.ring;
    t.evictions <- t.evictions + 1
  end

(* ------------------------------------------------------------------ *)
(* Persistence.  One file, [dir]/corpus.p4tg:

     p4tg-corpus-v1
     limits max_size=M min_size=m max_mutations=A next_id=N
     counters admits=.. evictions=.. novelty=.. mutations=.. splices=.. cases=..
     seen K
     <K sorted ints, space-separated, on one line (or an empty line)>
     combos C
     <C lines, sorted>
     entries E
     entry id=.. arch=.. novelty=.. mutations=.. tags=a,b,c bytes=B
     <B raw source bytes>
     ... *)

let file_name = "corpus.p4tg"

let path dir = Filename.concat dir file_name

let save t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (magic ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "limits max_size=%d min_size=%d max_mutations=%d next_id=%d\n"
       t.max_size t.min_size t.max_mutations t.next_id);
  Buffer.add_string buf
    (Printf.sprintf
       "counters admits=%d evictions=%d novelty=%d mutations=%d splices=%d cases=%d\n"
       t.admits t.evictions t.coverage_novelty t.mutations_total t.splice_sources
       t.cases_seen);
  let seen = ISet.elements t.seen in
  Buffer.add_string buf (Printf.sprintf "seen %d\n" (List.length seen));
  Buffer.add_string buf (String.concat " " (List.map string_of_int seen));
  Buffer.add_char buf '\n';
  let combos = SSet.elements t.combos in
  Buffer.add_string buf (Printf.sprintf "combos %d\n" (List.length combos));
  List.iter (fun c -> Buffer.add_string buf (c ^ "\n")) combos;
  Buffer.add_string buf (Printf.sprintf "entries %d\n" (List.length t.ring));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "entry id=%d arch=%s novelty=%d mutations=%d tags=%s bytes=%d\n"
           e.id e.arch e.novelty e.mutations (String.concat "," e.tags)
           (String.length e.src));
      Buffer.add_string buf e.src;
      Buffer.add_char buf '\n')
    t.ring;
  (* write-then-rename so a killed campaign never leaves a torn file *)
  let tmp = path dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc buf;
  close_out oc;
  Sys.rename tmp (path dir)

exception Bad_format of string

let load dir : t option =
  let file = path dir in
  if not (Sys.file_exists file) then None
  else
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          let line () = input_line ic in
          let fail msg = raise (Bad_format msg) in
          let kv prefix s =
            (* "prefix a=1 b=2" -> assoc list *)
            match String.split_on_char ' ' s with
            | p :: rest when p = prefix ->
                List.map
                  (fun tok ->
                    match String.index_opt tok '=' with
                    | Some i ->
                        ( String.sub tok 0 i,
                          String.sub tok (i + 1) (String.length tok - i - 1) )
                    | None -> fail ("bad token " ^ tok))
                  rest
            | _ -> fail ("expected " ^ prefix)
          in
          let geti assoc k = int_of_string (List.assoc k assoc) in
          if line () <> magic then fail "version";
          let limits = kv "limits" (line ()) in
          let t =
            create ~max_size:(geti limits "max_size") ~min_size:(geti limits "min_size")
              ~max_mutations:(geti limits "max_mutations") ()
          in
          t.next_id <- geti limits "next_id";
          let c = kv "counters" (line ()) in
          t.admits <- geti c "admits";
          t.evictions <- geti c "evictions";
          t.coverage_novelty <- geti c "novelty";
          t.mutations_total <- geti c "mutations";
          t.splice_sources <- geti c "splices";
          t.cases_seen <- geti c "cases";
          (match String.split_on_char ' ' (line ()) with
          | [ "seen"; n ] ->
              let n = int_of_string n in
              let toks =
                match line () with
                | "" -> []
                | l -> String.split_on_char ' ' l
              in
              if List.length toks <> n then fail "seen count";
              t.seen <- ISet.of_list (List.map int_of_string toks)
          | _ -> fail "seen");
          (match String.split_on_char ' ' (line ()) with
          | [ "combos"; n ] ->
              let n = int_of_string n in
              for _ = 1 to n do
                t.combos <- SSet.add (line ()) t.combos
              done
          | _ -> fail "combos");
          (match String.split_on_char ' ' (line ()) with
          | [ "entries"; n ] ->
              let n = int_of_string n in
              let entries = ref [] in
              for _ = 1 to n do
                let e = kv "entry" (line ()) in
                let bytes = geti e "bytes" in
                let src = really_input_string ic bytes in
                (match input_char ic with
                | '\n' -> ()
                | _ -> fail "entry terminator"
                | exception End_of_file -> fail "entry terminator");
                let tags =
                  match List.assoc "tags" e with
                  | "" -> []
                  | s -> String.split_on_char ',' s
                in
                entries :=
                  {
                    id = geti e "id";
                    src;
                    arch = List.assoc "arch" e;
                    novelty = geti e "novelty";
                    mutations = geti e "mutations";
                    tags;
                  }
                  :: !entries
              done;
              t.ring <- List.rev !entries
          | _ -> fail "entries");
          Some t
        with
        | Bad_format _ | End_of_file | Not_found | Failure _ -> None)
