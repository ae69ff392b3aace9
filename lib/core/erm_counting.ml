open Cgraph
module C = Modelcheck.Ctypes

type result = Sweep.result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

let typer ~q ~tmax =
  {
    Sweep.context = (fun g -> C.ctp (C.make_ctx g) ~q ~tmax);
    hypothesis = Hypothesis.of_counting_types ~q ~tmax;
  }

let sweep g ~k ~ell ~q ~tmax lam =
  Sweep.make ~solver:Analysis.Plan.Counting ~tmax (typer ~q ~tmax)
    (fun () -> Sweep.tuples ~n:(Graph.order g) ~ell)
    g ~k ~ell ~q lam

let solve ?pool g ~k ~ell ~q ~tmax lam =
  Sweep.solve ?pool (sweep g ~k ~ell ~q ~tmax lam)

let solve_budgeted ?budget ?precheck ?pool ?ckpt g ~k ~ell ~q ~tmax lam =
  Sweep.solve_budgeted ?budget ?precheck ?pool ?ckpt
    (sweep g ~k ~ell ~q ~tmax lam)

let optimal_error g ~k ~ell ~q ~tmax lam = (solve g ~k ~ell ~q ~tmax lam).err

let solve_for_params g ~k ~q ~tmax ~params lam =
  Sweep.for_params (sweep g ~k ~ell:(Array.length params) ~q ~tmax lam) ~params

let eval_range g ~k ~ell ~q ~tmax lam ~lo ~hi =
  Sweep.eval_range (sweep g ~k ~ell ~q ~tmax lam) ~lo ~hi
