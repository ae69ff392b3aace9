open Cgraph
module C = Modelcheck.Ctypes

type result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

let hypotheses_enumerated = Obs.Metric.counter "erm.hypotheses_enumerated"
let consistency_checks = Obs.Metric.counter "erm.consistency_checks"

let check_arity ~k lam =
  Analysis.Guard.require ~what:"Erm_counting"
    (Analysis.Guard.sample_arity ~k (List.map fst lam))

let majority ctx ~q ~tmax ~params lam =
  let votes : (C.ty, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (v, label) ->
      let t = C.ctp ctx ~q ~tmax (Graph.Tuple.append v params) in
      let pos, neg =
        match Hashtbl.find_opt votes t with
        | Some cell -> cell
        | None ->
            let cell = (ref 0, ref 0) in
            Hashtbl.replace votes t cell;
            cell
      in
      if label then incr pos else incr neg)
    lam;
  Hashtbl.fold
    (fun t (pos, neg) (chosen, errs) ->
      if !pos > !neg then (t :: chosen, errs + !neg) else (chosen, errs + !pos))
    votes ([], 0)

(* Fixed-parameter solve and the standalone sweep slice, mirroring
   [Erm_brute]; both serve the fleet worker/coordinator split. *)
let solve_for_params g ~k ~q ~tmax ~params lam =
  check_arity ~k lam;
  let ctx = C.make_ctx g in
  let chosen, errs = majority ctx ~q ~tmax ~params lam in
  let hypothesis =
    Hypothesis.of_counting_types g ~k ~q ~tmax ~types:chosen ~params
  in
  let err =
    match lam with
    | [] -> 0.0
    | _ -> float_of_int errs /. float_of_int (Sample.size lam)
  in
  { hypothesis; err; params_tried = 1 }

let eval_range g ~k ~ell ~q ~tmax lam ~lo ~hi =
  check_arity ~k lam;
  let n = Graph.order g in
  let ctx = C.make_ctx g in
  let best = ref None in
  for i = lo to hi - 1 do
    Guard.tick Guard.Solver_loop;
    Obs.Metric.incr hypotheses_enumerated;
    Obs.Metric.incr consistency_checks;
    let params = Graph.Tuple.of_index ~n ~k:ell i in
    let _, errs = majority ctx ~q ~tmax ~params lam in
    match !best with
    | Some (_, best_errs) when best_errs <= errs -> ()
    | _ -> best := Some (i, errs)
  done;
  !best

(* Candidate store shared with the salvage hook; see [Erm_brute] for
   the (errors, index)-lex determinism argument. *)
type progress = {
  tried : int ref;
  best : (int * Graph.Tuple.t * C.ty list * int) option ref;
  merge : Mutex.t;
}

let fresh_progress () =
  { tried = ref 0; best = ref None; merge = Mutex.create () }

let consider st idx params chosen errs =
  match !(st.best) with
  | Some (bidx, _, _, berrs)
    when berrs < errs || (berrs = errs && bidx <= idx) ->
      ()
  | _ -> st.best := Some (idx, params, chosen, errs)

let best_key st =
  match !(st.best) with Some (i, _, _, e) -> Some (i, e) | None -> None

let finish g ~k ~q ~tmax lam st =
  match !(st.best) with
  | Some (_, params, chosen, errs) ->
      {
        hypothesis =
          Hypothesis.of_counting_types g ~k ~q ~tmax ~types:chosen ~params;
        err =
          (match lam with
          | [] -> 0.0
          | _ -> float_of_int errs /. float_of_int (Sample.size lam));
        params_tried = !(st.tried);
      }
  | None ->
      {
        hypothesis = Hypothesis.constantly g ~k false;
        err = Sample.error_of (fun _ -> false) lam;
        params_tried = !(st.tried);
      }

let solve_body ?pool ?(ckpt = Resil.Ctl.none) g ~k ~ell ~q ~tmax lam st =
  Analysis.Guard.require ~what:"Erm_counting.solve"
    (Analysis.Guard.budgets ~ell ~q ~tmax ~k ());
  check_arity ~k lam;
  let n = Graph.order g in
  let pool = match pool with Some p -> p | None -> Par.default () in
  let total = Graph.Tuple.count ~n ~k:ell in
  match total with
  | Some total when Par.Pool.parallel pool && total > 1 ->
      Par.map_reduce_chunks pool ~n:total
        ~map:(fun lo hi ->
          let ctx = C.make_ctx g in
          let local = ref None in
          for i = lo to hi - 1 do
            Guard.tick Guard.Solver_loop;
            Obs.Metric.incr hypotheses_enumerated;
            Obs.Metric.incr consistency_checks;
            if Resil.Ctl.should_eval ckpt i then begin
              let params = Graph.Tuple.of_index ~n ~k:ell i in
              let chosen, errs = majority ctx ~q ~tmax ~params lam in
              match !local with
              | Some (_, _, _, best_errs) when best_errs <= errs -> ()
              | _ -> local := Some (i, params, chosen, errs)
            end
          done;
          Mutex.lock st.merge;
          st.tried := !(st.tried) + (hi - lo);
          (match !local with
          | Some (i, params, chosen, errs) -> consider st i params chosen errs
          | None -> ());
          Resil.Ctl.chunk_done ckpt ~lo ~hi ~best:(best_key st);
          Mutex.unlock st.merge)
        ~reduce:(fun () () -> ())
        ~init:() ();
      finish g ~k ~q ~tmax lam st
  | _ ->
      let ctx = C.make_ctx g in
      let idx = ref 0 in
      Graph.Tuple.iter_all ~n ~k:ell (fun params ->
          Guard.tick Guard.Solver_loop;
          incr st.tried;
          Obs.Metric.incr hypotheses_enumerated;
          Obs.Metric.incr consistency_checks;
          let i = !idx in
          if Resil.Ctl.should_eval ckpt i then begin
            let chosen, errs = majority ctx ~q ~tmax ~params lam in
            consider st i params chosen errs
          end;
          Resil.Ctl.chunk_done ckpt ~lo:i ~hi:(i + 1) ~best:(best_key st);
          incr idx);
      finish g ~k ~q ~tmax lam st

let solve ?pool g ~k ~ell ~q ~tmax lam =
  Obs.Span.with_ "erm_counting.solve"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q); ("tmax", string_of_int tmax) ]
  @@ fun () ->
  solve_body ?pool g ~k ~ell ~q ~tmax lam (fresh_progress ())

let solve_budgeted ?budget ?(precheck = true) ?pool ?(ckpt = Resil.Ctl.none) g
    ~k ~ell ~q ~tmax lam =
  Obs.Span.with_ "erm_counting.solve_budgeted"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q); ("tmax", string_of_int tmax) ]
  @@ fun () ->
  match
    Admission.erm ?budget ~tmax
      ~enabled:(precheck && not (Resil.Ctl.active ckpt))
      ~what:"Erm_counting" ~solver:Analysis.Plan.Counting g ~k ~ell ~q lam
  with
  | Some rejected -> rejected
  | None ->
      let st = fresh_progress () in
      Resil.Ctl.with_attached ckpt @@ fun () ->
      Guard.run ?budget
        ~salvage:(fun () ->
          match !(st.best) with
          | None -> None
          | Some _ -> Some (finish g ~k ~q ~tmax lam st))
        (fun () -> solve_body ?pool ~ckpt g ~k ~ell ~q ~tmax lam st)

let optimal_error g ~k ~ell ~q ~tmax lam = (solve g ~k ~ell ~q ~tmax lam).err
