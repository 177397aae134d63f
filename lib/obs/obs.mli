(** Telemetry for the oracle: named metrics, hierarchical spans, and
    trace export.

    A {!Registry.t} is the unit of observation.  It is owned by one
    domain at a time (like an {!Smt.Expr.ctx}): every run allocates its
    own registry, mutates it without synchronization, and the batch
    driver merges immutable {!Snapshot}s afterwards.  Metric cells are
    interned by name, so hot paths resolve a cell once and then pay a
    single mutable-field update per event.

    This module owns the clock: {!Clock.now} is the only sanctioned
    time source in the tree (no other module calls
    [Unix.gettimeofday]). *)

module Clock : sig
  val now : unit -> float
  (** Seconds since the Unix epoch, from the single process-wide time
      source.  All spans and timers are measured with this function. *)
end

(** {1 Metric cells} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit

  val set_max : t -> int -> unit
  (** Raises the gauge to [n] if below it (high-water marking). *)

  val value : t -> int
end

module Timer : sig
  type t

  val add : t -> float -> unit
  (** Accumulates [seconds] (negative additions are rejected with
      [Invalid_argument]). *)

  val time : t -> (unit -> 'a) -> 'a
  (** Runs the thunk and accumulates its wall-clock duration, also on
      exception. *)

  val value : t -> float
end

(** {1 Snapshots} *)

module Snapshot : sig
  type value =
    | Count of int  (** counter reading; merges by summing *)
    | Level of int  (** gauge reading; merges by maximum *)
    | Seconds of float  (** timer reading; merges by summing *)

  type t
  (** An immutable reading of a registry: name-sorted metric values. *)

  val empty : t

  val merge : t -> t -> t
  (** Pointwise merge (associative and commutative): counters and
      timers sum, gauges take the maximum.  Raises [Invalid_argument]
      if a name carries different kinds in the two snapshots. *)

  val diff : t -> t -> t
  (** [diff after before]: counters and timers subtract, gauges keep
      the [after] reading.  Names absent from [before] count as zero. *)

  val to_list : t -> (string * value) list
  (** Name-sorted. *)

  val prefix : string -> t -> t
  (** [prefix p s] renames every metric [n] of [s] to [p ^ n], so that
      a sub-run's reading can be absorbed beside the main run's without
      adding to its names. *)

  val counters : t -> (string * int) list
  (** Only the [Count] entries (deterministic across schedulings,
      unlike timers). *)

  val get_int : t -> string -> int
  (** [Count]/[Level] reading of a name, 0 when absent. *)

  val get_float : t -> string -> float
  (** [Seconds] reading of a name, 0.0 when absent. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable table, one metric per line. *)

  val to_json : t -> string
  (** One JSON object mapping names to numbers. *)
end

(** {1 Registries} *)

module Registry : sig
  type t

  val create : ?record_spans:bool -> unit -> t
  (** A fresh registry.  [record_spans] (default [true]) controls
      whether completed spans are retained for export; metric cells
      are unaffected. *)

  val counter : t -> string -> Counter.t
  val gauge : t -> string -> Gauge.t
  val timer : t -> string -> Timer.t
  (** Intern the named cell, creating it at zero on first use.
      Re-registering a name with a different kind raises
      [Invalid_argument]. *)

  val snapshot : t -> Snapshot.t

  val absorb : t -> Snapshot.t -> unit
  (** Folds a snapshot into the registry's live cells — counters and
      timers accumulate, gauges high-water (the mutable dual of
      {!Snapshot.merge}).  Raises [Invalid_argument] if a name carries
      a different kind in the registry.  The selftest campaign uses
      this to account each case's run into its worker's registry, so
      that merged totals are independent of the worker count. *)

  val spans : t -> (string * float * int) list
  (** Completed spans, oldest first: (name, duration seconds, nesting
      depth).  Mostly for tests; exporters use {!Trace}. *)
end

(** {1 Spans} *)

module Span : sig
  type t

  val enter : Registry.t -> ?args:(string * string) list -> string -> t
  (** Opens a span at the registry's current nesting depth. *)

  val exit : Registry.t -> t -> unit
  (** Closes the span, stamping its duration. *)

  val with_ :
    Registry.t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [with_ reg name f] runs [f] inside a span, closing it also on
      exception. *)
end

(** {1 Export}

    Each [(label, registry)] pair becomes one track (a Chrome trace
    thread): spans nest by time, metrics appear as counter samples. *)

module Trace : sig
  val write_chrome : out_channel -> (string * Registry.t) list -> unit
  (** Chrome [trace_event] JSON ({{:https://ui.perfetto.dev}Perfetto} /
      [about:tracing] format): one object with a [traceEvents] array;
      timestamps are rebased to the earliest span. *)
end
