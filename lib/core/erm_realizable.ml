open Cgraph

type result = {
  hypothesis : Hypothesis.t;
  mc_calls : int;
  formulas_tried : int;
}

let s_color j = Printf.sprintf "_S%d" j
let pos_color = "_Ppos"
let neg_color = "_Pneg"

(* Atomic: incremented from pool workers during the parallel scan *)
let mc_calls_counter = Atomic.make 0
let hypotheses_enumerated = Obs.Metric.counter "erm.hypotheses_enumerated"
let consistency_checks = Obs.Metric.counter "erm.consistency_checks"
let early_exits = Obs.Metric.counter "erm.early_exits"
let mc_calls_metric = Obs.Metric.counter "erm_realizable.mc_calls"

(* phi_i(x, y_{i+1}..y_l) = exists y_1..y_i. (/\_{j<=i} S_j(y_j)) /\ phi *)
let phi_i ~i phi =
  let bound = List.init i (fun j -> Printf.sprintf "y%d" (j + 1)) in
  let guards =
    List.init i (fun j -> Fo.Formula.color (s_color (j + 1)) (Printf.sprintf "y%d" (j + 1)))
  in
  Fo.Formula.exists_many bound (Fo.Formula.and_ (guards @ [ phi ]))

(* The certificate sentence of Algorithm 2, line 8. *)
let certificate ~ell ~i phi =
  let tail = List.init (ell - i) (fun j -> Printf.sprintf "y%d" (i + j + 1)) in
  let body =
    Fo.Formula.forall "x"
      (Fo.Formula.and_
         [
           Fo.Formula.implies (Fo.Formula.color pos_color "x") (phi_i ~i phi);
           Fo.Formula.implies
             (Fo.Formula.color neg_color "x")
             (Fo.Formula.not_ (phi_i ~i phi));
         ])
  in
  Fo.Formula.exists_many tail body

let expanded g ~prefix ~candidate_index ~candidate lam =
  let colors =
    List.mapi (fun j w -> (s_color (j + 1), [ w ])) prefix
    @ (match candidate with
      | Some u -> [ (s_color candidate_index, [ u ]) ]
      | None -> [])
    @ [
        (pos_color, List.map (fun v -> v.(0)) (Sample.positives lam));
        (neg_color, List.map (fun v -> v.(0)) (Sample.negatives lam));
      ]
  in
  Graph.with_colors g colors

let consistent_extension g ~ell phi lam =
  (match Sample.arity lam with
  | Some 1 | None -> ()
  | Some k ->
      invalid_arg
        (Printf.sprintf "Erm_realizable: k = 1 required, got examples of arity %d" k));
  let allowed = "x" :: List.init ell (fun i -> Printf.sprintf "y%d" (i + 1)) in
  List.iter
    (fun v ->
      if not (List.mem v allowed) then
        invalid_arg
          (Printf.sprintf "Erm_realizable: free variable %S not among x, y1..y%d" v ell))
    (Fo.Formula.free_vars phi);
  let rec fix_prefix i prefix =
    if i > ell then Some (Array.of_list (List.rev prefix))
    else begin
      let rec try_vertex u =
        if u >= Graph.order g then None
        else begin
          let g' =
            expanded g ~prefix:(List.rev prefix) ~candidate_index:i
              ~candidate:(Some u) lam
          in
          Atomic.incr mc_calls_counter;
          Obs.Metric.incr mc_calls_metric;
          if Modelcheck.Eval.sentence g' (certificate ~ell ~i phi) then Some u
          else try_vertex (u + 1)
        end
      in
      match try_vertex 0 with
      | Some u -> fix_prefix (i + 1) (u :: prefix)
      | None -> None
    end
  in
  if ell = 0 then begin
    let g' = expanded g ~prefix:[] ~candidate_index:0 ~candidate:None lam in
    Atomic.incr mc_calls_counter;
    Obs.Metric.incr mc_calls_metric;
    if Modelcheck.Eval.sentence g' (certificate ~ell:0 ~i:0 phi) then Some [||]
    else None
  end
  else fix_prefix 1 []

let result_for g ~total phi ~index params =
  if index < total - 1 then Obs.Metric.incr early_exits;
  (* catalogue formulas use "x"; hypotheses use "x1" *)
  let formula = Fo.Formula.substitute [ ("x", "x1") ] phi in
  {
    hypothesis = Hypothesis.of_formula g ~k:1 ~formula ~params;
    mc_calls = Atomic.get mc_calls_counter;
    formulas_tried = index + 1;
  }

let solve ?pool g ~ell ~catalogue lam =
  Obs.Span.with_ "erm_realizable.solve" ~args:[ ("ell", string_of_int ell) ]
  @@ fun () ->
  Atomic.set mc_calls_counter 0;
  let pool = match pool with Some p -> p | None -> Par.default () in
  if not (Par.Pool.parallel pool) then begin
    let total = List.length catalogue in
    let rec go tried = function
      | [] -> None
      | phi :: rest -> (
          Guard.tick Guard.Solver_loop;
          Obs.Metric.incr hypotheses_enumerated;
          Obs.Metric.incr consistency_checks;
          match consistent_extension g ~ell phi lam with
          | Some params -> Some (result_for g ~total phi ~index:tried params)
          | None -> go (tried + 1) rest)
    in
    go 0 catalogue
  end
  else begin
    (* Parallel scan in catalogue-order blocks: every formula of a
       block is checked concurrently, then the lowest-indexed hit — the
       same formula the sequential scan stops at — wins.  The scan
       stops at the first block containing a hit, so early exit is
       retained up to block granularity; [mc_calls] consequently counts
       a few speculative checks past the winner (the winning hypothesis
       itself is bit-identical to the sequential one). *)
    let arr = Array.of_list catalogue in
    let total = Array.length arr in
    let block = 4 * Par.Pool.size pool in
    let rec scan start =
      if start >= total then None
      else begin
        let stop = min total (start + block) in
        let hits =
          Par.map_tasks pool ~tasks:(stop - start) (fun d ->
              Guard.tick Guard.Solver_loop;
              Obs.Metric.incr hypotheses_enumerated;
              Obs.Metric.incr consistency_checks;
              consistent_extension g ~ell arr.(start + d) lam)
        in
        let rec first d =
          if d >= Array.length hits then None
          else
            match hits.(d) with
            | Some params -> Some (start + d, params)
            | None -> first (d + 1)
        in
        match first 0 with
        | Some (index, params) ->
            Some (result_for g ~total arr.(index) ~index params)
        | None -> scan stop
      end
    in
    scan 0
  end

let solve_budgeted ?budget ?pool g ~ell ~catalogue lam =
  Obs.Span.with_ "erm_realizable.solve_budgeted"
    ~args:[ ("ell", string_of_int ell) ]
  @@ fun () ->
  (* The algorithm keeps no partial state worth salvaging: it returns
     the first consistent formula, so an interrupted scan has no
     best-so-far — only "no answer yet". *)
  Guard.run ?budget
    ~salvage:(fun () -> None)
    (fun () -> solve ?pool g ~ell ~catalogue lam)
