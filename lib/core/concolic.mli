(** Two-phase concolic resolution (§5.4).

    Complex extern results (checksums, hashes) are modeled during
    symbolic execution as unconstrained placeholder variables with a
    recorded concrete implementation ({!Runtime.concolic_call}).  At
    path end {!resolve} binds them:

    + phase 1 solves the path constraints and reads the model values of
      each call's arguments (calls evaluated oldest-first, so earlier
      results feed later arguments);
    + phase 2 runs the concrete implementation on those values and
      re-checks the path with the argument and result equalities added.

    When phase 2 is unsatisfiable the failing argument assignment is
    blocked and the process retries a bounded number of times before
    the path is discarded.  The paper's checksum-specific optimization
    (forcing the reference value to equal the computed checksum) falls
    out of the encoding: [verify_checksum] produces the constraint
    [r == given] on the match path, and binding [r] lets the solver
    choose [given] accordingly when it is symbolic. *)

val max_retries : int

type outcome =
  | Resolved of (Smt.Expr.t -> Bitv.Bits.t)
      (** evaluator over the final model, used to concretize the test *)
  | Infeasible
      (** no consistent concrete binding exists within the retry budget *)

val resolve : Smt.Solver.t -> Runtime.state -> outcome
(** [resolve solver st] assumes the solver currently holds [st]'s path
    constraints (the explorer's DFS spine). *)
