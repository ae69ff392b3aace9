open Cgraph
module Types = Modelcheck.Types

type result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

(* shared across the four solvers: one increment per candidate
   hypothesis considered (parameter tuple / catalogue formula / leaf) *)
let hypotheses_enumerated = Obs.Metric.counter "erm.hypotheses_enumerated"
let consistency_checks = Obs.Metric.counter "erm.consistency_checks"

let check_arity ~k lam =
  Analysis.Guard.require ~what:"Erm_brute"
    (Analysis.Guard.sample_arity ~k (List.map fst lam))

(* Best type-set for fixed parameters: majority vote per q-type class of
   v̄·w̄.  Returns (positive type list, number of errors). *)
let majority_types ctx ~q ~params lam =
  let votes : (Types.ty, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (v, label) ->
      let t = Types.tp ctx ~q (Graph.Tuple.append v params) in
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

let solve_for_params_ctx ctx g ~k ~q ~params lam =
  check_arity ~k lam;
  let chosen, errs = majority_types ctx ~q ~params lam in
  let hypothesis = Hypothesis.of_types g ~k ~q ~types:chosen ~params in
  let err =
    match lam with
    | [] -> 0.0
    | _ -> float_of_int errs /. float_of_int (Sample.size lam)
  in
  { hypothesis; err; params_tried = 1 }

let solve_for_params g ~k ~q ~params lam =
  solve_for_params_ctx (Types.make_ctx g) g ~k ~q ~params lam

(* One standalone slice of the candidate sweep, for an out-of-process
   fleet worker: fresh type context, the same per-candidate tick and
   counter discipline as the in-process sweep, local (errors, index)
   lex-min over [lo, hi).  Only the key is returned — the coordinator
   recovers the winning hypothesis by re-evaluating the best index
   with {!solve_for_params}, exactly like a checkpoint resume. *)
let eval_range g ~k ~ell ~q lam ~lo ~hi =
  check_arity ~k lam;
  let n = Graph.order g in
  let ctx = Types.make_ctx g in
  let best = ref None in
  for i = lo to hi - 1 do
    Guard.tick Guard.Solver_loop;
    Obs.Metric.incr hypotheses_enumerated;
    Obs.Metric.incr consistency_checks;
    let params = Graph.Tuple.of_index ~n ~k:ell i in
    let _, errs = majority_types ctx ~q ~params lam in
    match !best with
    | Some (_, best_errs) when best_errs <= errs -> ()
    | _ -> best := Some (i, errs)
  done;
  !best

(* The candidate store shared between the solver body and the salvage
   hook of [solve_budgeted].  [best] carries the candidate's index in
   the enumeration order: the winner is the lexicographic minimum of
   (errors, index), which is exactly the sequential first-best rule and
   — being a minimum — is independent of the order in which parallel
   chunks merge into it. *)
type progress = {
  tried : int ref;
  best : (int * Graph.Tuple.t * Types.ty list * int) option ref;
      (* (candidate index, params, chosen types, errors) *)
  merge : Mutex.t;
}

let fresh_progress () =
  { tried = ref 0; best = ref None; merge = Mutex.create () }

(* [(errs, idx)]-lex merge; assumes [st.merge] is held (or the run is
   sequential). *)
let consider st idx params chosen errs =
  match !(st.best) with
  | Some (bidx, _, _, berrs)
    when berrs < errs || (berrs = errs && bidx <= idx) ->
      ()
  | _ -> st.best := Some (idx, params, chosen, errs)

(* the checkpoint controller's view of the best: (index, error count) *)
let best_key st =
  match !(st.best) with Some (i, _, _, e) -> Some (i, e) | None -> None

let finish g ~k ~q lam st =
  match !(st.best) with
  | Some (_, params, chosen, errs) ->
      {
        hypothesis = Hypothesis.of_types g ~k ~q ~types:chosen ~params;
        err =
          (match lam with
          | [] -> 0.0
          | _ -> float_of_int errs /. float_of_int (Sample.size lam));
        params_tried = !(st.tried);
      }
  | None ->
      (* ell >= 1 on the empty graph: H is empty unless there are no
         examples; fall back to a constant hypothesis. *)
      {
        hypothesis = Hypothesis.constantly g ~k false;
        err = Sample.error_of (fun _ -> false) lam;
        params_tried = !(st.tried);
      }

(* The enumeration core, shared by [solve] and [solve_budgeted].  It
   streams candidate tuples (no materialised [n^ell] list) so an
   ambient budget can interrupt it at any checkpoint, and keeps the
   best candidate in [st] so the budgeted entry can salvage it.

   With a pool of size > 1 the candidate range is swept in chunks, one
   [Types] context per chunk (the memo tables are not shared between
   domains); each finished chunk merges its local (errs, idx)-best into
   [st] under [st.merge], so the final — and any salvaged — winner is
   the same candidate the sequential sweep keeps.

   [ckpt] threads the resume cursor: candidates below it still tick
   the budget, bump the obs counters and count as tried — so a resumed
   run's telemetry equals the uninterrupted one — but skip the
   majority vote, except the recorded best index (re-evaluated to
   recover the winning types).  Settled ranges are reported back so
   the cadence writer can snapshot the frontier. *)
let solve_body ?pool ?(ckpt = Resil.Ctl.none) g ~k ~ell ~q lam st =
  Analysis.Guard.require ~what:"Erm_brute.solve"
    (Analysis.Guard.budgets ~ell ~q ~k ());
  check_arity ~k lam;
  let n = Graph.order g in
  let pool = match pool with Some p -> p | None -> Par.default () in
  let total = Graph.Tuple.count ~n ~k:ell in
  match total with
  | Some total when Par.Pool.parallel pool && total > 1 ->
      Par.map_reduce_chunks pool ~n:total
        ~map:(fun lo hi ->
          let ctx = Types.make_ctx g in
          let local = ref None in
          for i = lo to hi - 1 do
            Guard.tick Guard.Solver_loop;
            Obs.Metric.incr hypotheses_enumerated;
            Obs.Metric.incr consistency_checks;
            if Resil.Ctl.should_eval ckpt i then begin
              let params = Graph.Tuple.of_index ~n ~k:ell i in
              let chosen, errs = majority_types ctx ~q ~params lam in
              match !local with
              | Some (_, _, _, best_errs) when best_errs <= errs -> ()
              | _ -> local := Some (i, params, chosen, errs)
            end
          done;
          (* merge as soon as the chunk completes so a later budget trip
             can still salvage it *)
          Mutex.lock st.merge;
          st.tried := !(st.tried) + (hi - lo);
          (match !local with
          | Some (i, params, chosen, errs) -> consider st i params chosen errs
          | None -> ());
          Resil.Ctl.chunk_done ckpt ~lo ~hi ~best:(best_key st);
          Mutex.unlock st.merge)
        ~reduce:(fun () () -> ())
        ~init:() ();
      finish g ~k ~q lam st
  | _ ->
      (* sequential sweep (also the fallback if n^ell overflows int) *)
      let ctx = Types.make_ctx g in
      let idx = ref 0 in
      Graph.Tuple.iter_all ~n ~k:ell (fun params ->
          Guard.tick Guard.Solver_loop;
          incr st.tried;
          Obs.Metric.incr hypotheses_enumerated;
          Obs.Metric.incr consistency_checks;
          let i = !idx in
          if Resil.Ctl.should_eval ckpt i then begin
            let chosen, errs = majority_types ctx ~q ~params lam in
            consider st i params chosen errs
          end;
          Resil.Ctl.chunk_done ckpt ~lo:i ~hi:(i + 1) ~best:(best_key st);
          incr idx);
      finish g ~k ~q lam st

let solve ?pool g ~k ~ell ~q lam =
  Obs.Span.with_ "erm_brute.solve"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q) ]
  @@ fun () ->
  solve_body ?pool g ~k ~ell ~q lam (fresh_progress ())

let solve_budgeted ?budget ?(precheck = true) ?pool ?(ckpt = Resil.Ctl.none) g
    ~k ~ell ~q lam =
  Obs.Span.with_ "erm_brute.solve_budgeted"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q) ]
  @@ fun () ->
  match
    Admission.erm ?budget
      ~enabled:(precheck && not (Resil.Ctl.active ckpt))
      ~what:"Erm_brute" ~solver:Analysis.Plan.Brute g ~k ~ell ~q lam
  with
  | Some rejected -> rejected
  | None ->
      let st = fresh_progress () in
      Resil.Ctl.with_attached ckpt @@ fun () ->
      Guard.run ?budget
        ~salvage:(fun () ->
          (* Only salvage if at least one candidate finished evaluating;
             the constant fallback would not be "best seen so far". *)
          match !(st.best) with
          | None -> None
          | Some _ -> Some (finish g ~k ~q lam st))
        (fun () -> solve_body ?pool ~ckpt g ~k ~ell ~q lam st)

let optimal_error g ~k ~ell ~q lam = (solve g ~k ~ell ~q lam).err
