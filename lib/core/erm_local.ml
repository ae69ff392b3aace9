open Cgraph
module Types = Modelcheck.Types

type result = {
  hypothesis : Hypothesis.t;
  err : float;
  pool_size : int;
  params_tried : int;
  vertices_touched : int;
}

let pool_size_h = Obs.Metric.histogram "erm_local.pool_size"

(* the candidate pool and what it touched, filled in when the sweep
   builds its space *)
type reach = { mutable pool_size : int; mutable vertices_touched : int }

let radius_for ?radius q =
  match radius with Some r -> r | None -> Fo.Gaifman.radius q

let sweep ?pool ?radius g ~k ~ell ~q lam reach =
  let r = radius_for ?radius q in
  let space () =
    let entries =
      List.sort_uniq compare
        (List.concat_map (fun (v, _) -> Array.to_list v) lam)
    in
    (* the two multi-source balls are independent BFS sweeps — batch
       them on the pool (a 2-task batch; inline when jobs = 1):
       pool    = (2r+1)-neighbourhood of the examples (candidate params)
       touched = (3r+2)-neighbourhood (everything the algorithm reads) *)
    let balls =
      Par.map_tasks
        (match pool with Some p -> p | None -> Par.default ())
        ~tasks:2
        (fun i ->
          if i = 0 then Bfs.ball g ~r:((2 * r) + 1) entries
          else Bfs.ball g ~r:((3 * r) + 2) entries)
    in
    reach.pool_size <- List.length balls.(0);
    if Obs.Sink.enabled () then
      Obs.Metric.observe pool_size_h (float_of_int reach.pool_size);
    reach.vertices_touched <- List.length balls.(1);
    Sweep.up_to (Array.of_list balls.(0)) ~ell
  in
  Sweep.make ~solver:Analysis.Plan.Local ?radius
    {
      Sweep.context = (fun g -> Types.ltp (Types.make_ctx g) ~q ~r);
      hypothesis = Hypothesis.of_local_types ~q ~r;
    }
    space g ~k ~ell ~q lam

let extend reach (r : Sweep.result) =
  {
    hypothesis = r.Sweep.hypothesis;
    err = r.Sweep.err;
    pool_size = reach.pool_size;
    params_tried = r.Sweep.params_tried;
    vertices_touched = reach.vertices_touched;
  }

let solve ?pool ?radius g ~k ~ell ~q lam =
  let reach = { pool_size = 0; vertices_touched = 0 } in
  extend reach (Sweep.solve ?pool (sweep ?pool ?radius g ~k ~ell ~q lam reach))

let solve_budgeted ?budget ?precheck ?pool ?radius ?ckpt g ~k ~ell ~q lam =
  let reach = { pool_size = 0; vertices_touched = 0 } in
  Guard.outcome_map (extend reach)
    (Sweep.solve_budgeted ?budget ?precheck ?pool ?ckpt
       (sweep ?pool ?radius g ~k ~ell ~q lam reach))
