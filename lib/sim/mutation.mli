(** Fault injection for the bug-finding study (Tbl. 2 / Tbl. 3).

    The paper counts bugs P4Testgen exposed in production toolchains:
    "exception" bugs (the software model, test framework, or
    control-plane software crashes) and "wrong code" bugs (the test
    inputs produce unexpected output).  The repository reproduces the
    experiment's shape by seeding {!Interp} with faults of both classes
    and measuring how many the generated test suites expose
    ([bench/main.exe table2]). *)

type kind = Exception | Wrong_code

(** The injectable fault behaviors; see the corpus for the bug each one
    models. *)
type fault =
  | No_fault
  | Crash_stack_oob
  | Crash_expr_key
  | Crash_missing_name
  | Crash_varbit_extract
  | Crash_union_emit
  | Crash_dup_member
  | Crash_zero_len
  | Crash_assert
  | Wrong_stack_op
  | Swallow_apply
  | Ignore_entry_priority
  | Wrong_checksum_fold
  | Invalid_read_garbage
  | Drop_second_emit
  | Wrong_shift_direction
  | Wrong_ternary_mask
  | Skip_default_action
  | Truncate_action_arg
  | Register_reset_between_packets
      (** register state re-initialised between the packets of a test
          sequence ({!Harness.run_test} consults it at each injection) *)

type t = {
  m_label : string;  (** e.g. "P4C-7" or "TOF-11" *)
  m_target : string;  (** "BMv2" or "Tofino" *)
  m_kind : kind;
  m_desc : string;
  m_fault : fault;
}

val kind_name : kind -> string

val fault_name : fault -> string
(** Stable snake_case spelling, e.g. ["invalid_read_garbage"]. *)

val corpus : t list
(** 10 BMv2-side faults — the Tbl. 3 nine (with their exact
    descriptions) plus the sequence-persistence fault SEQ-1 — and 16
    Tofino-side faults, matching the counts of Tbl. 2. *)

val by_label : string -> t option
(** Look up a corpus entry by its label ("P4C-7", "TOF-12"). *)

val fault_of_string : string -> fault option
(** Resolve a CLI spelling: a corpus label or a {!fault_name}. *)
