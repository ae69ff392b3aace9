open Cgraph
module Types = Modelcheck.Types

type result = Sweep.result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

let typer ~q =
  {
    Sweep.context = (fun g -> Types.tp (Types.make_ctx g) ~q);
    hypothesis = Hypothesis.of_types ~q;
  }

let sweep g ~k ~ell ~q lam =
  Sweep.make ~solver:Analysis.Plan.Brute (typer ~q)
    (fun () -> Sweep.tuples ~n:(Graph.order g) ~ell)
    g ~k ~ell ~q lam

let solve ?pool g ~k ~ell ~q lam = Sweep.solve ?pool (sweep g ~k ~ell ~q lam)

let solve_budgeted ?budget ?precheck ?pool ?ckpt g ~k ~ell ~q lam =
  Sweep.solve_budgeted ?budget ?precheck ?pool ?ckpt (sweep g ~k ~ell ~q lam)

let optimal_error g ~k ~ell ~q lam = (solve g ~k ~ell ~q lam).err

let solve_for_params g ~k ~q ~params lam =
  Sweep.for_params (sweep g ~k ~ell:(Array.length params) ~q lam) ~params

let eval_range g ~k ~ell ~q lam ~lo ~hi =
  Sweep.eval_range (sweep g ~k ~ell ~q lam) ~lo ~hi
