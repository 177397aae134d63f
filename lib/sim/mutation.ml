(* Fault injection for the bug-finding study (Tbl. 2 / Tbl. 3).

   The paper counts bugs P4Testgen exposed in production toolchains:
   "exception" bugs (the software model, test framework, or
   control-plane software crashes) and "wrong code" bugs (the test
   inputs produce unexpected output).  We reproduce the *experiment
   shape* by seeding the simulator — our stand-in for the toolchain —
   with faults of both classes and measuring how many the generated
   test suites expose. *)

type kind = Exception | Wrong_code

type fault =
  | No_fault
  | Crash_stack_oob  (** BMV2-1: out-of-bounds header-stack index crashes *)
  | Crash_expr_key  (** P4C-1: keys with expressions in their name crash the STF back end *)
  | Crash_missing_name  (** P4C-4: actions without a name annotation crash *)
  | Crash_varbit_extract  (** P4C-2: varbit extract with expression argument *)
  | Crash_union_emit  (** P4C-6: header-union emit not flattened *)
  | Crash_dup_member  (** P4C-8: structure members with the same name *)
  | Crash_zero_len  (** BMv2 garbage on 0-length packets (issue 977) *)
  | Crash_assert  (** assert/assume terminate the model abnormally *)
  | Wrong_stack_op  (** P4C-3/5: wrong operation dereferencing a header stack *)
  | Swallow_apply  (** P4C-7: a switch case's table.apply() is dropped *)
  | Ignore_entry_priority  (** constant entries evaluated in the wrong order *)
  | Wrong_checksum_fold  (** checksum carries folded once instead of to fixpoint *)
  | Invalid_read_garbage  (** invalid header reads yield 0xFF instead of 0 *)
  | Drop_second_emit  (** deparser swallows the second emit *)
  | Wrong_shift_direction  (** << compiled as >> *)
  | Wrong_ternary_mask  (** ternary match ignores the mask *)
  | Skip_default_action  (** table miss executes nothing *)
  | Truncate_action_arg  (** action data truncated to 8 bits *)
  | Register_reset_between_packets
      (** register state re-initialised between the packets of a test
          sequence: cross-packet extern persistence is broken *)

type t = {
  m_label : string;
  m_target : string;  (** "BMv2" or "Tofino" *)
  m_kind : kind;
  m_desc : string;
  m_fault : fault;
}

let kind_name = function Exception -> "Exception" | Wrong_code -> "Wrong Code"

let fault_name = function
  | No_fault -> "no_fault"
  | Crash_stack_oob -> "crash_stack_oob"
  | Crash_expr_key -> "crash_expr_key"
  | Crash_missing_name -> "crash_missing_name"
  | Crash_varbit_extract -> "crash_varbit_extract"
  | Crash_union_emit -> "crash_union_emit"
  | Crash_dup_member -> "crash_dup_member"
  | Crash_zero_len -> "crash_zero_len"
  | Crash_assert -> "crash_assert"
  | Wrong_stack_op -> "wrong_stack_op"
  | Swallow_apply -> "swallow_apply"
  | Ignore_entry_priority -> "ignore_entry_priority"
  | Wrong_checksum_fold -> "wrong_checksum_fold"
  | Invalid_read_garbage -> "invalid_read_garbage"
  | Drop_second_emit -> "drop_second_emit"
  | Wrong_shift_direction -> "wrong_shift_direction"
  | Wrong_ternary_mask -> "wrong_ternary_mask"
  | Skip_default_action -> "skip_default_action"
  | Truncate_action_arg -> "truncate_action_arg"
  | Register_reset_between_packets -> "register_reset_between_packets"

(* The seeded fault corpus: 10 BMv2-side and 16 Tofino-side faults —
   the 9 + 16 of Tbl. 2 (the BMv2 nine carry the descriptions of
   Tbl. 3) plus SEQ-1, a stateful-persistence fault only multi-packet
   sequences (§5's extension story) can expose. *)
let corpus : t list =
  let bmv2 label kind desc fault =
    { m_label = label; m_target = "BMv2"; m_kind = kind; m_desc = desc; m_fault = fault }
  in
  let tofino label kind desc fault =
    { m_label = label; m_target = "Tofino"; m_kind = kind; m_desc = desc; m_fault = fault }
  in
  [
    (* --- BMv2 / P4C (Tbl. 3) --- *)
    bmv2 "P4C-1" Exception
      "The STF test back end is unable to process keys with expressions in their name."
      Crash_expr_key;
    bmv2 "P4C-2" Exception
      "The compiler did not correctly transform a varbit extract call with an expression as second argument."
      Crash_varbit_extract;
    bmv2 "P4C-3" Exception
      "The output by the compiler was using an incorrect operation to dereference a header stack."
      Wrong_stack_op;
    bmv2 "BMV2-1" Exception
      "BMv2 crashes when accessing a header stack with an index that is out of bounds."
      Crash_stack_oob;
    bmv2 "P4C-4" Exception
      "Actions, which are missing their name annotation, cause the STF test back end to crash."
      Crash_missing_name;
    bmv2 "P4C-5" Exception
      "A second instance where the compiler was using the wrong operation to manipulate header stacks."
      Wrong_shift_direction;
    bmv2 "P4C-6" Exception
      "The compiler should have flattened a header union input for emit calls."
      Crash_union_emit;
    bmv2 "P4C-7" Wrong_code
      "The compiler swallowed the table.apply() of a switch case, which led to incorrect output."
      Swallow_apply;
    bmv2 "P4C-8" Exception "BMv2 can not process structure members with the same name."
      Crash_dup_member;
    bmv2 "SEQ-1" Wrong_code
      "The switch re-initialises register state between the packets of a test sequence."
      Register_reset_between_packets;
    (* --- Tofino (confidential in the paper; synthetic corpus with the
       same 9 exception / 7 wrong-code split) --- *)
    tofino "TOF-1" Exception "Model crash on zero-length packet input." Crash_zero_len;
    tofino "TOF-2" Exception "Driver crash inserting an entry with an expression key."
      Crash_expr_key;
    tofino "TOF-3" Exception "Assembler rejects varbit extraction in the egress parser."
      Crash_varbit_extract;
    tofino "TOF-4" Exception "Model assertion failure on header-stack overflow."
      Crash_stack_oob;
    tofino "TOF-5" Exception "Control-plane crash on unnamed action parameters."
      Crash_missing_name;
    tofino "TOF-6" Exception "Deparser crash emitting an uninitialized header union."
      Crash_union_emit;
    tofino "TOF-7" Exception "Compiler crash on duplicate metadata field names."
      Crash_dup_member;
    tofino "TOF-8" Exception "Model terminates abnormally on assert in egress." Crash_assert;
    tofino "TOF-9" Exception "PHV allocator crash on wide shift operands."
      Crash_varbit_extract;
    tofino "TOF-10" Wrong_code "Constant entries matched ignoring their priority order."
      Ignore_entry_priority;
    tofino "TOF-11" Wrong_code "Checksum unit folds the carry only once." Wrong_checksum_fold;
    tofino "TOF-12" Wrong_code "Reads of invalid headers return stale PHV contents."
      Invalid_read_garbage;
    tofino "TOF-13" Wrong_code "The deparser swallows the second emitted header."
      Drop_second_emit;
    tofino "TOF-14" Wrong_code "Ternary matches computed without applying the mask."
      Wrong_ternary_mask;
    tofino "TOF-15" Wrong_code "A table miss skips the default action." Skip_default_action;
    tofino "TOF-16" Wrong_code "Action data wider than 8 bits is truncated." Truncate_action_arg;
  ]

let by_label l = List.find_opt (fun m -> m.m_label = l) corpus

(* resolve a CLI spelling: a corpus label ("P4C-7", "TOF-12") or a
   fault name ("swallow_apply") *)
let fault_of_string s : fault option =
  match by_label s with
  | Some m -> Some m.m_fault
  | None ->
      List.find_map
        (fun m -> if fault_name m.m_fault = s then Some m.m_fault else None)
        corpus
