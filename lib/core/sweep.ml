open Cgraph

type result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

(* one increment per candidate hypothesis considered (parameter tuple /
   catalogue formula / leaf), shared with the other solvers *)
let hypotheses_enumerated = Obs.Metric.counter "erm.hypotheses_enumerated"
let consistency_checks = Obs.Metric.counter "erm.consistency_checks"

(* Best type-set for fixed parameters: majority vote per type class of
   v̄·w̄.  Returns (positive type list, number of errors). *)
let majority typ ~params lam =
  let votes = Hashtbl.create 64 in
  List.iter
    (fun (v, label) ->
      let t = typ (Graph.Tuple.append v params) in
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

type 'ty typer = {
  context : Graph.t -> Graph.Tuple.t -> 'ty;
  hypothesis :
    Graph.t -> k:int -> types:'ty list -> params:Graph.Tuple.t -> Hypothesis.t;
}

type space = {
  size : int option;
  nth : int -> Graph.Tuple.t;
  iter : (Graph.Tuple.t -> unit) -> unit;
}

let tuples ~n ~ell =
  {
    size = Graph.Tuple.count ~n ~k:ell;
    nth = Graph.Tuple.of_index ~n ~k:ell;
    iter = Graph.Tuple.iter_all ~n ~k:ell;
  }

(* Within one length the first position varies fastest: the tuple of
   pool positions is the reverse of [Graph.Tuple]'s lexicographic one. *)
let up_to pool ~ell =
  let n = Array.length pool in
  let at t =
    let j = Array.length t in
    Array.init j (fun d -> pool.(t.(j - 1 - d)))
  in
  let size =
    List.fold_left
      (fun acc j ->
        match (acc, Graph.Tuple.count ~n ~k:j) with
        | Some a, Some c when a <= max_int - c -> Some (a + c)
        | _ -> None)
      (Some 0)
      (List.init (ell + 1) Fun.id)
  in
  let rec nth j i =
    match Graph.Tuple.count ~n ~k:j with
    | Some c when i >= c -> nth (j + 1) (i - c)
    | _ -> at (Graph.Tuple.of_index ~n ~k:j i)
  in
  {
    size;
    nth = nth 0;
    iter =
      (fun f ->
        for j = 0 to ell do
          Graph.Tuple.iter_all ~n ~k:j (fun t -> f (at t))
        done);
  }

type t =
  | Sweep : {
      solver : Analysis.Plan.solver;
      typer : 'ty typer;
      space : unit -> space;
      g : Graph.t;
      k : int;
      ell : int;
      q : int;
      tmax : int option;
      radius : int option;
      lam : Sample.t;
    }
      -> t

let make ~solver ?tmax ?radius typer space g ~k ~ell ~q lam =
  Sweep { solver; typer; space; g; k; ell; q; tmax; radius; lam }

let name (Sweep s) = "erm_" ^ Analysis.Plan.solver_name s.solver
let what sw = String.capitalize_ascii (name sw)

let span (Sweep s as sw) entry f =
  let arg name v = (name, string_of_int v) in
  Obs.Span.with_ (name sw ^ "." ^ entry)
    ~args:
      ([ arg "k" s.k; arg "ell" s.ell; arg "q" s.q ]
      @ Option.to_list (Option.map (arg "tmax") s.tmax))
    f

let check ~entry (Sweep s as sw) =
  Analysis.Guard.require
    ~what:(what sw ^ "." ^ entry)
    (Analysis.Guard.budgets ~ell:s.ell ~q:s.q ?tmax:s.tmax ?radius:s.radius
       ~k:s.k ()
    @ Analysis.Guard.sample_arity ~k:s.k (List.map fst s.lam))

let admit ?budget ~enabled (Sweep s as sw) =
  Admission.erm ?budget ?radius:s.radius ?tmax:s.tmax ~enabled ~what:(what sw)
    ~solver:s.solver s.g ~k:s.k ~ell:s.ell ~q:s.q s.lam

(* The candidate store shared between the sweep and the salvage hook.
   [best] carries the candidate's index in the enumeration order: the
   winner is the lexicographic minimum of (errors, index), which is
   exactly the sequential first-best rule and — being a minimum — is
   independent of the order in which parallel chunks merge into it. *)
type 'ty store = {
  mutable tried : int;
  mutable best : (int * Graph.Tuple.t * 'ty list * int) option;
      (* (candidate index, params, chosen types, errors) *)
}

let store () = { tried = 0; best = None }

let consider st i params chosen errs =
  match st.best with
  | Some (bi, _, _, be) when be < errs || (be = errs && bi <= i) -> ()
  | _ -> st.best <- Some (i, params, chosen, errs)

(* the checkpoint controller's view of the best: (index, error count) *)
let key st = Option.map (fun (i, _, _, e) -> (i, e)) st.best

(* One candidate: the budget tick and the counters always, so a resumed
   run's telemetry equals the uninterrupted one; the vote unless a
   resume replays past it. *)
let step ckpt typ lam st i params =
  Guard.tick Guard.Solver_loop;
  st.tried <- st.tried + 1;
  Obs.Metric.incr hypotheses_enumerated;
  Obs.Metric.incr consistency_checks;
  if Resil.Ctl.should_eval ckpt i then begin
    let params = params () in
    let chosen, errs = majority typ ~params lam in
    consider st i params chosen errs
  end

(* an empty store (ell >= 1 on the empty graph: no candidate) falls
   back to a constant hypothesis *)
let finish typer g ~k lam st =
  let hypothesis, errs =
    match st.best with
    | Some (_, params, chosen, errs) ->
        (typer.hypothesis g ~k ~types:chosen ~params, errs)
    | None ->
        (Hypothesis.constantly g ~k false, Sample.errors_of (fun _ -> false) lam)
  in
  {
    hypothesis;
    err =
      (match lam with
      | [] -> 0.0
      | _ -> float_of_int errs /. float_of_int (Sample.size lam));
    params_tried = st.tried;
  }

(* With a pool of size > 1 the candidate range is swept in chunks, one
   type context per chunk (the memo tables are not shared between
   domains); each finished chunk merges its local best into [st] under
   [merge], so the final — and any salvaged — winner is the candidate
   the sequential sweep keeps.  A space whose size overflows an int is
   streamed sequentially. *)
let run ?pool ~ckpt typer space g lam st =
  let pool = match pool with Some p -> p | None -> Par.default () in
  match space.size with
  | Some total when Par.Pool.parallel pool && total > 1 ->
      let merge = Mutex.create () in
      Par.map_reduce_chunks pool ~n:total
        ~map:(fun lo hi ->
          let typ = typer.context g and local = store () in
          for i = lo to hi - 1 do
            step ckpt typ lam local i (fun () -> space.nth i)
          done;
          (* merge as soon as the chunk completes so a later budget trip
             can still salvage it *)
          Mutex.protect merge (fun () ->
              st.tried <- st.tried + local.tried;
              Option.iter
                (fun (i, params, chosen, errs) ->
                  consider st i params chosen errs)
                local.best;
              Resil.Ctl.chunk_done ckpt ~lo ~hi ~best:(key st)))
        ~reduce:(fun () () -> ())
        ~init:() ()
  | _ ->
      let typ = typer.context g and i = ref 0 in
      space.iter (fun params ->
          let idx = !i in
          step ckpt typ lam st idx (fun () -> params);
          Resil.Ctl.chunk_done ckpt ~lo:idx ~hi:(idx + 1) ~best:(key st);
          incr i)

(* the sweep over one fresh store, and the salvage hook reading it:
   only once a candidate finished evaluating, as the constant fallback
   would not be "best seen so far" *)
let start ?pool ~ckpt (Sweep s as sw) =
  let st = store () in
  let finish () = finish s.typer s.g ~k:s.k s.lam st in
  ( (fun () ->
      check ~entry:"solve" sw;
      run ?pool ~ckpt s.typer (s.space ()) s.g s.lam st;
      finish ()),
    fun () -> Option.map (fun _ -> finish ()) st.best )

let solve ?pool sw =
  span sw "solve" @@ fun () -> fst (start ?pool ~ckpt:Resil.Ctl.none sw) ()

let solve_budgeted ?budget ?(precheck = true) ?pool ?(ckpt = Resil.Ctl.none)
    sw =
  span sw "solve_budgeted" @@ fun () ->
  match
    admit ?budget ~enabled:(precheck && not (Resil.Ctl.active ckpt)) sw
  with
  | Some rejected -> rejected
  | None ->
      let run, salvage = start ?pool ~ckpt sw in
      Resil.Ctl.with_attached ckpt @@ fun () -> Guard.run ?budget ~salvage run

let for_params (Sweep s as sw) ~params =
  check ~entry:"for_params" sw;
  let st = { tried = 1; best = None } in
  let chosen, errs = majority (s.typer.context s.g) ~params s.lam in
  consider st 0 params chosen errs;
  finish s.typer s.g ~k:s.k s.lam st

let winner (Sweep s as sw) = function
  | Some i -> for_params sw ~params:((s.space ()).nth i)
  | None -> finish s.typer s.g ~k:s.k s.lam (store ())

let eval_range (Sweep s as sw) ~lo ~hi =
  check ~entry:"eval_range" sw;
  let space = s.space () and typ = s.typer.context s.g and st = store () in
  for i = lo to hi - 1 do
    step Resil.Ctl.none typ s.lam st i (fun () -> space.nth i)
  done;
  key st
