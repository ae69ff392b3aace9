open Cgraph
module Types = Modelcheck.Types

type result = {
  hypothesis : Hypothesis.t;
  err : float;
  pool_size : int;
  params_tried : int;
  vertices_touched : int;
}

let hypotheses_enumerated = Obs.Metric.counter "erm.hypotheses_enumerated"
let consistency_checks = Obs.Metric.counter "erm.consistency_checks"
let pool_size_h = Obs.Metric.histogram "erm_local.pool_size"

let majority ctx ~q ~r ~params lam =
  let votes : (Types.ty, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (v, label) ->
      let t = Types.ltp ctx ~q ~r (Graph.Tuple.append v params) in
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

(* all j-tuples (with repetition) over a pool, streamed in the same
   order the old materialised enumeration produced: the length-(j-1)
   suffix varies in the outer loop, the new head in the inner one.
   Streaming matters: a budget checkpoint inside the consumer must be
   able to stop the enumeration before |pool|^j tuples exist. *)
let rec iter_tuples pool j f =
  if j = 0 then f []
  else
    iter_tuples pool (j - 1) (fun rest ->
        List.iter (fun p -> f (p :: rest)) pool)

(* random access into the [iter_tuples] order: the head varies fastest,
   so position [d] of tuple [i] is digit [d] of [i] base |pool| *)
let tuple_of_index pool_arr j i =
  let p = Array.length pool_arr in
  let t = Array.make j 0 in
  let rem = ref i in
  for d = 0 to j - 1 do
    t.(d) <- pool_arr.(!rem mod p);
    rem := !rem / p
  done;
  t

(* mutable progress shared between the solver body and the salvage
   hook of [solve_budgeted].  [best] carries the global candidate index
   (counting through j = 0, 1, ... in enumeration order): the winner is
   the (errors, index) lexicographic minimum, which both the sequential
   sweep and the chunk-merge of the parallel sweep compute. *)
type progress = {
  mutable pool_size : int;
  mutable vertices_touched : int;
  mutable tried : int;
  mutable best : (int * Graph.Tuple.t * Types.ty list * int) option;
  merge : Mutex.t;
}

let fresh_progress () =
  {
    pool_size = 0;
    vertices_touched = 0;
    tried = 0;
    best = None;
    merge = Mutex.create ();
  }

let consider st idx params chosen errs =
  match st.best with
  | Some (bidx, _, _, berrs)
    when berrs < errs || (berrs = errs && bidx <= idx) ->
      ()
  | _ -> st.best <- Some (idx, params, chosen, errs)

let best_key st =
  match st.best with Some (i, _, _, e) -> Some (i, e) | None -> None

let finish g ~k ~q ~r lam st =
  let params, chosen, errs =
    match st.best with
    | Some (_, params, chosen, errs) -> (params, chosen, errs)
    | None -> ([||], [], Sample.errors_of (fun _ -> false) lam)
  in
  {
    hypothesis = Hypothesis.of_local_types g ~k ~q ~r ~types:chosen ~params;
    err =
      (match lam with
      | [] -> 0.0
      | _ -> float_of_int errs /. float_of_int (Sample.size lam));
    pool_size = st.pool_size;
    params_tried = st.tried;
    vertices_touched = st.vertices_touched;
  }

let solve_body ?pool:ppool ?(ckpt = Resil.Ctl.none) g ~k ~ell ~q ~r lam st =
  Analysis.Guard.require ~what:"Erm_local.solve"
    (Analysis.Guard.budgets ~ell ~q ~radius:r ~k ()
    @ Analysis.Guard.sample_arity ~k (List.map fst lam));
  let ppool = match ppool with Some p -> p | None -> Par.default () in
  let entries =
    List.sort_uniq compare
      (List.concat_map (fun (v, _) -> Array.to_list v) lam)
  in
  (* the two multi-source balls are independent BFS sweeps — batch them
     on the pool (a 2-task batch; inline when jobs = 1):
     pool    = (2r+1)-neighbourhood of the examples (candidate params)
     touched = (3r+2)-neighbourhood (everything the algorithm reads) *)
  let balls =
    Par.map_tasks ppool ~tasks:2 (fun i ->
        if i = 0 then Bfs.ball g ~r:((2 * r) + 1) entries
        else Bfs.ball g ~r:((3 * r) + 2) entries)
  in
  let pool = balls.(0) in
  st.pool_size <- List.length pool;
  if Obs.Sink.enabled () then
    Obs.Metric.observe pool_size_h (float_of_int st.pool_size);
  st.vertices_touched <- List.length balls.(1);
  if not (Par.Pool.parallel ppool) then begin
    let ctx = Types.make_ctx g in
    let idx = ref 0 in
    for j = 0 to ell do
      iter_tuples pool j (fun params_list ->
          Guard.tick Guard.Solver_loop;
          st.tried <- st.tried + 1;
          Obs.Metric.incr hypotheses_enumerated;
          Obs.Metric.incr consistency_checks;
          let i = !idx in
          if Resil.Ctl.should_eval ckpt i then begin
            let params = Array.of_list params_list in
            let chosen, errs = majority ctx ~q ~r ~params lam in
            consider st i params chosen errs
          end;
          Resil.Ctl.chunk_done ckpt ~lo:i ~hi:(i + 1) ~best:(best_key st);
          incr idx)
    done
  end
  else begin
    (* parallel: sweep each tuple length j in candidate-order chunks;
       [offset] numbers candidates globally across the j-levels *)
    let pool_arr = Array.of_list pool in
    let p = Array.length pool_arr in
    let offset = ref 0 in
    for j = 0 to ell do
      match Graph.Tuple.count ~n:p ~k:j with
      | None ->
          invalid_arg "Erm_local.solve: candidate space exceeds max_int"
      | Some total ->
          let base = !offset in
          Par.map_reduce_chunks ppool ~n:total
            ~map:(fun lo hi ->
              let ctx = Types.make_ctx g in
              let local = ref None in
              for i = lo to hi - 1 do
                Guard.tick Guard.Solver_loop;
                Obs.Metric.incr hypotheses_enumerated;
                Obs.Metric.incr consistency_checks;
                if Resil.Ctl.should_eval ckpt (base + i) then begin
                  let params = tuple_of_index pool_arr j i in
                  let chosen, errs = majority ctx ~q ~r ~params lam in
                  match !local with
                  | Some (_, _, _, best_errs) when best_errs <= errs -> ()
                  | _ -> local := Some (base + i, params, chosen, errs)
                end
              done;
              Mutex.lock st.merge;
              st.tried <- st.tried + (hi - lo);
              (match !local with
              | Some (i, params, chosen, errs) ->
                  consider st i params chosen errs
              | None -> ());
              Resil.Ctl.chunk_done ckpt ~lo:(base + lo) ~hi:(base + hi)
                ~best:(best_key st);
              Mutex.unlock st.merge)
            ~reduce:(fun () () -> ())
            ~init:() ();
          offset := base + total
    done
  end;
  finish g ~k ~q ~r lam st

let radius_for ?radius q =
  match radius with Some r -> r | None -> Fo.Gaifman.radius q

let solve ?pool ?radius g ~k ~ell ~q lam =
  Obs.Span.with_ "erm_local.solve"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q) ]
  @@ fun () ->
  solve_body ?pool g ~k ~ell ~q ~r:(radius_for ?radius q) lam
    (fresh_progress ())

let solve_budgeted ?budget ?(precheck = true) ?pool ?radius
    ?(ckpt = Resil.Ctl.none) g ~k ~ell ~q lam =
  Obs.Span.with_ "erm_local.solve_budgeted"
    ~args:
      [ ("k", string_of_int k); ("ell", string_of_int ell);
        ("q", string_of_int q) ]
  @@ fun () ->
  match
    Admission.erm ?budget ?radius
      ~enabled:(precheck && not (Resil.Ctl.active ckpt))
      ~what:"Erm_local" ~solver:Analysis.Plan.Local g ~k ~ell ~q lam
  with
  | Some rejected -> rejected
  | None ->
      let r = radius_for ?radius q in
      let st = fresh_progress () in
      Resil.Ctl.with_attached ckpt @@ fun () ->
      Guard.run ?budget
        ~salvage:(fun () ->
          match st.best with
          | None -> None
          | Some _ -> Some (finish g ~k ~q ~r lam st))
        (fun () -> solve_body ?pool ~ckpt g ~k ~ell ~q ~r lam st)
