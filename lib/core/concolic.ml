(* Two-phase concolic resolution (§5.4).

   At path end every recorded concolic call must be bound to the value
   its concrete implementation produces.  Phase 1: solve the path
   constraints and read the model values of the call's arguments.
   Phase 2: run the concrete implementation on those values and check
   that binding argument and result equalities keeps the path
   satisfiable.  When it does not, we block the failing argument
   assignment and retry a bounded number of times before discarding
   the path. *)

module Bits = Bitv.Bits
module Expr = Smt.Expr
module Solver = Smt.Solver
open Runtime

let max_retries = 3

type outcome =
  | Resolved of (Expr.t -> Bits.t)  (** model evaluator for the final model *)
  | Infeasible

(* evaluate [e] under the solver model extended with already-computed
   concolic results *)
let eval_with s (computed : (Expr.var * Bits.t) list) (e : Expr.t) : Bits.t =
  Expr.eval
    ~taint:(fun id w -> Solver.model_taint s id w)
    (fun v ->
      match List.find_opt (fun (cv, _) -> cv.Expr.vid = v.Expr.vid) computed with
      | Some (_, b) -> b
      | None -> Solver.model_var s v)
    e

let bindings_of s (calls : concolic_call list) : Expr.t list * Expr.t list =
  (* returns (argument equalities, result equalities) under the
     current model, evaluating calls oldest-first so results of
     earlier calls feed later argument evaluations *)
  let arg_eqs, out_eqs, _ =
    List.fold_left
      (fun (aeqs, oeqs, computed) call ->
        let arg_vals = List.map (eval_with s computed) call.cc_args in
        let out = call.cc_impl arg_vals in
        let aeqs' =
          List.map2
            (fun a v -> Expr.eq a (Expr.const (Expr.ctx_of a) v))
            call.cc_args arg_vals
        in
        let oeq = Expr.eq call.cc_var (Expr.const (Expr.ctx_of call.cc_var) out) in
        (aeqs @ aeqs', oeqs @ [ oeq ], computed @ [ (Expr.var_of call.cc_var, out) ]))
      ([], [], []) calls
  in
  (arg_eqs, out_eqs)

let resolve (s : Solver.t) (st : state) : outcome =
  (* report into the registry of the solver's run *)
  let reg = Solver.obs s in
  let c_blocked = Obs.Registry.counter reg "concolic.blocked" in
  let go () =
    let calls = List.rev st.concolic in
    let try_with assumptions =
      match Solver.check_assuming s assumptions with
      | Solver.Sat -> true
      | Solver.Unsat -> false
    in
    if calls = [] then
      match Solver.check s with
      | Solver.Sat -> Resolved (Solver.model_eval s)
      | Solver.Unsat -> Infeasible
    else begin
      let rec attempt n blocked =
        if n > max_retries || not (try_with blocked) then Infeasible
        else begin
          (* phase 1 model obtained; compute concrete bindings *)
          let arg_eqs, out_eqs = bindings_of s calls in
          if try_with (blocked @ arg_eqs @ out_eqs) then Resolved (Solver.model_eval s)
          else begin
            (* block this argument assignment and retry (§5.4,
               "handling unsatisfiable concolic assignments") *)
            Obs.Counter.incr c_blocked;
            let block = Expr.bnot (Expr.conj (Solver.ctx s) arg_eqs) in
            attempt (n + 1) (block :: blocked)
          end
        end
      in
      attempt 0 []
    end
  in
  let outcome = Obs.Timer.time (Obs.Registry.timer reg "concolic.time") go in
  Obs.Counter.incr
    (Obs.Registry.counter reg
       (match outcome with
       | Resolved _ -> "concolic.resolved"
       | Infeasible -> "concolic.infeasible"));
  outcome
