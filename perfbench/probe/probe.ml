(* In-process helper of the folearn benchmark (perfbench/run.py).

   probe expect OPS            labels each learn op's sample the way the
                               CLI does and reports the largest training
                               error the op may report
   probe trace OPS SPANS       runs the ops in-process through the
                               modules' public functions, with spans
                               around each call; prints per-layer
                               metrics, writes the spans to SPANS
   probe load ADDR OPS SECS CONNS MODE SPANS [METRICS_ADDR]
                               drives a running `folearn_cli serve`
                               through Serve.Client.rpc; MODE warm is
                               one untimed pass, timed and traced run
                               for SECS and check every response
                               against Serve.Exec.run_op

   OPS is a JSON list of {"op", "kind", "params"} objects whose params
   are Serve.Exec parameter objects.  Spans are recorded here, around
   the calls into the library, never inside it. *)

open Cgraph
module J = Obs.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("probe: " ^ m); exit 2) fmt
let now () = Obs.Clock.now_ns ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_json path =
  match J.of_string (read_file path) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let str ?default p name =
  match (Option.bind (J.member name p) J.to_string_opt, default) with
  | Some s, _ -> s
  | None, Some d -> d
  | None, None -> die "missing string parameter %S" name

let int_d p name d = Option.value ~default:d (Option.bind (J.member name p) J.to_int_opt)

let float_d p name d =
  Option.value ~default:d (Option.bind (J.member name p) J.to_float_opt)

type op = { op : string; kind : string; params : J.t }

let read_ops path =
  match read_json path with
  | J.List l ->
      List.map
        (fun o ->
          {
            op = str o "op";
            kind = str ~default:"call" o "kind";
            params = Option.value ~default:(J.Obj []) (J.member "params" o);
          })
        l
  | _ -> die "%s: expected a JSON list of ops" path

let num x = if Float.is_finite x then J.Float x else J.Float 0.0

(* ------------------------------------------------------------------ *)
(* spans: name, start, end, parent, op id; kept in memory               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;
  op_id : int;
  name : string;
  t0 : int64;
  mutable t1 : int64;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let cur_op = ref (-1)
let span_lock = Mutex.create ()

(* a finished span recorded with an explicit parent (client threads) *)
let record ~name ~parent ~op_id t0 t1 =
  Mutex.protect span_lock (fun () ->
      let id = !next_id in
      incr next_id;
      spans := { id; parent; op_id; name; t0; t1 } :: !spans;
      id)

let with_span name f =
  if not !tracing then f ()
  else
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; parent; op_id = !cur_op; name; t0 = now (); t1 = 0L }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f

let span_ms s = ms_between s.t0 s.t1

(* per-name total and self time (duration minus the part its children
   cover; children of one span never overlap, they nest) *)
let layer_times () =
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (span_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    !spans;
  let total = Hashtbl.create 64 and self = Hashtbl.create 64 in
  let add h k v = Hashtbl.replace h k (v +. Option.value ~default:0.0 (Hashtbl.find_opt h k)) in
  List.iter
    (fun s ->
      add total s.name (span_ms s);
      add self s.name
        (span_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id)))
    !spans;
  (total, self)

let spans_json () =
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id); ("parent", J.Int s.parent);
             ("op", J.Int s.op_id); ("name", J.String s.name);
             ("start_ns", J.String (Int64.to_string s.t0));
             ("end_ns", J.String (Int64.to_string s.t1));
           ])
       !spans)

(* ------------------------------------------------------------------ *)
(* inputs, built exactly as the CLI and Serve.Exec build them           *)
(* ------------------------------------------------------------------ *)

let build_graph p =
  let g =
    match Serve.Exec.parse_graph_spec (str p "graph") with
    | Ok g -> g
    | Error (`Msg m) -> die "graph: %s" m
  in
  let colors =
    match J.member "colors" p with
    | Some (J.List l) ->
        List.map
          (fun c ->
            match Option.map Serve.Exec.parse_color (J.to_string_opt c) with
            | Some (Ok kv) -> kv
            | _ -> die "bad colour spec")
          l
    | _ -> []
  in
  Graph.with_colors g colors

type learn = {
  solver : string;
  k : int;
  ell : int;
  q : int;
  tmax : int;
  noise : float;
  m : int;
  seed : int;
}

let learn_of p =
  {
    solver = str ~default:"brute" p "solver";
    k = int_d p "k" 1;
    ell = int_d p "ell" 0;
    q = int_d p "q" 1;
    tmax = int_d p "tmax" 2;
    noise = float_d p "noise" 0.0;
    m = int_d p "m" 0;
    seed = int_d p "seed" 1;
  }

let parse_formula s =
  match Fo.Parser.parse_result s with
  | Ok f -> f
  | Error e -> die "formula %S: %s" s (Fo.Parser.error_to_string e)

(* the clean labels and the (possibly) noisy training sequence *)
let label g target l =
  let module Sam = Folearn.Sample in
  let tuples =
    if l.m = 0 then Sam.all_tuples g ~k:l.k
    else Sam.random_tuples ~seed:l.seed g ~k:l.k ~m:l.m
  in
  let clean =
    Sam.label_with_query g ~formula:target ~xvars:(Folearn.Hypothesis.xvars l.k)
      tuples
  in
  let lam =
    if l.noise > 0.0 then Sam.flip_noise ~seed:l.seed ~p:l.noise clean else clean
  in
  (clean, lam)

let flipped clean lam =
  List.fold_left2 (fun n (_, a) (_, b) -> if a <> b then n + 1 else n) 0 clean lam

(* Erm_nd.default_config's epsilon, which the CLI and Serve.Exec use *)
let nd_epsilon = 0.1

(* The largest training error a learn op may report.  The target lies in
   the class, so the exact solvers, and local, do no worse than the
   target itself (the flipped share); Theorem 13 allows nd epsilon more.
   A noise-free op must reach 0. *)
let error_bound solver clean lam =
  match flipped clean lam with
  | 0 -> 0.0
  | fl ->
      (float_of_int fl /. float_of_int (List.length lam))
      +. if solver = "nd" then nd_epsilon else 0.0

(* ------------------------------------------------------------------ *)
(* expect                                                              *)
(* ------------------------------------------------------------------ *)

let expect ops_file =
  let out =
    List.map
      (fun o ->
        if o.op <> "learn" then J.Null
        else
          let l = learn_of o.params in
          let g = build_graph o.params in
          let clean, lam = label g (parse_formula (str o.params "target")) l in
          J.Obj [ ("bound", num (error_bound l.solver clean lam)) ])
      (read_ops ops_file)
  in
  print_endline (J.to_string (J.List out))

(* ------------------------------------------------------------------ *)
(* trace: layer attribution of the ops, in-process                      *)
(* ------------------------------------------------------------------ *)

module Acc = struct
  let h : (string, float) Hashtbl.t = Hashtbl.create 64
  let add k v = Hashtbl.replace h k (v +. Option.value ~default:0.0 (Hashtbl.find_opt h k))
  let max_ k v = Hashtbl.replace h k (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt h k)))
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt h k)
end

let timed name f =
  let t0 = now () in
  let r = with_span name f in
  (r, ms_between t0 (now ()))

(* The learned hypothesis with its reported error, and the solver's
   own counts. *)
type solved = { hyp : Folearn.Hypothesis.t; err : float }

let outcome_value what = function
  | Guard.Complete r -> r
  | Guard.Exhausted _ -> die "%s exhausted under an unlimited budget" what

let solve l g lam budget =
  let module E = Folearn in
  match l.solver with
  | "brute" ->
      let r =
        outcome_value "brute"
          (E.Erm_brute.solve_budgeted ~budget g ~k:l.k ~ell:l.ell ~q:l.q lam)
      in
      { hyp = r.E.Erm_brute.hypothesis; err = r.E.Erm_brute.err }
  | "counting" ->
      let r =
        outcome_value "counting"
          (E.Erm_counting.solve_budgeted ~budget g ~k:l.k ~ell:l.ell ~q:l.q
             ~tmax:l.tmax lam)
      in
      { hyp = r.E.Erm_counting.hypothesis; err = r.E.Erm_counting.err }
  | "nd" ->
      let cls =
        with_span "splitter.class" (fun () ->
            Splitter.Nowhere_dense.of_graph "cli" g)
      in
      let cfg =
        E.Erm_nd.default_config ~radius:1 ~k:l.k ~ell_star:(max 1 l.ell)
          ~q_star:l.q cls
      in
      let rep = outcome_value "nd" (E.Erm_nd.solve_budgeted ~budget cfg g lam) in
      Acc.add "nd.branches" (float_of_int rep.E.Erm_nd.branches_explored);
      Acc.add "nd.rounds" (float_of_int (List.length rep.E.Erm_nd.rounds));
      { hyp = rep.E.Erm_nd.hypothesis; err = rep.E.Erm_nd.err }
  | "local" ->
      let r =
        outcome_value "local"
          (E.Erm_local.solve_budgeted ~budget g ~k:l.k ~ell:l.ell ~q:l.q lam)
      in
      Acc.add "local.pool_size" (float_of_int r.E.Erm_local.pool_size);
      Acc.add "local.vertices_touched" (float_of_int r.E.Erm_local.vertices_touched);
      { hyp = r.E.Erm_local.hypothesis; err = r.E.Erm_local.err }
  | s -> die "unknown solver %S" s

let plan_solver = function
  | "brute" -> Analysis.Plan.Brute
  | "counting" -> Analysis.Plan.Counting
  | "nd" -> Analysis.Plan.Nd
  | _ -> Analysis.Plan.Local

let env_json (e : Analysis.Cost_model.Env.t) =
  let c x =
    match Analysis.Cost_model.Count.to_int_opt x with
    | Some n -> J.Int n
    | None -> J.Null
  in
  J.List [ c e.Analysis.Cost_model.Env.lo; c e.Analysis.Cost_model.Env.hi ]

let env_hi (e : Analysis.Cost_model.Env.t) =
  Analysis.Cost_model.Count.to_int_opt e.Analysis.Cost_model.Env.hi

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let reeval_limit = 1e11

(* Re-evaluate a witness formula with the reference model checker,
   independently of the type machinery that built it: the training
   error of phi(x1..xk; y1..yl) with the parameters w on lam. *)
let reeval_formula g ~k ~params phi lam =
  let vars =
    Folearn.Hypothesis.xvars k @ Folearn.Hypothesis.yvars (Array.length params)
  in
  let wrong =
    List.fold_left
      (fun n (v, y) ->
        let p = Modelcheck.Eval.holds_tuple g ~vars (Graph.Tuple.append v params) phi in
        if p <> y then n + 1 else n)
      0 lam
  in
  float_of_int wrong /. float_of_int (max 1 (List.length lam))

let reeval g (h : Folearn.Hypothesis.t) phi lam =
  reeval_formula g ~k:(Folearn.Hypothesis.k h) ~params:(Folearn.Hypothesis.params h)
    phi lam

(* The op itself, as the CLI runs it: parse, build, label, plan, solve,
   materialise the witness.  Returns what the checks and the
   attribution passes need. *)
let learn_proper p =
  let l = learn_of p in
  let target = with_span "fo.parse" (fun () -> parse_formula (str p "target")) in
  let g = with_span "cgraph.build" (fun () -> build_graph p) in
  let clean, lam = with_span "compile.label" (fun () -> label g target l) in
  let _ : (Analysis.Plan.rejection option, string) result =
    with_span "plan.precheck" (fun () ->
        Serve.Exec.precheck_rejection ~op:"learn" ~params:p
          ~limits:Analysis.Plan.no_limits)
  in
  let plan =
    Analysis.Plan.analyze
      (Analysis.Plan.input
         ?radius:(if l.solver = "nd" then Some 1 else None)
         ~tmax:l.tmax g ~k:l.k ~ell:l.ell ~q:l.q (List.map fst lam))
      (plan_solver l.solver)
  in
  let budget = Guard.Budget.unlimited () in
  let s = with_span ("erm." ^ l.solver ^ "_solve") (fun () -> solve l g lam budget) in
  let tables = Modelcheck.Types.table_stats () in
  let ctables = Modelcheck.Ctypes.table_stats () in
  let phi = with_span "hintikka" (fun () -> Folearn.Hypothesis.formula s.hyp) in
  (l, g, clean, lam, plan, Guard.Budget.spent budget, s, tables, ctables, phi)

let reset_tables () =
  Modelcheck.Types.reset_tables ();
  Modelcheck.Ctypes.reset_tables ()

(* Attribution passes, with the library's own counters off so they do
   not pollute the op's counts.  Each type pass starts from empty
   tables.  The spans give the per-layer times; the shares of the brute
   and nd solve times are also kept per solver. *)
let attribute l g lam =
  let tuples = List.map fst lam in
  let n = Graph.order g in
  let over_params f =
    Graph.Tuple.iter_all ~n ~k:l.ell (fun w ->
        List.iter (fun v -> f (Graph.Tuple.append v w)) tuples)
  in
  let fresh () =
    reset_tables ();
    Modelcheck.Types.make_ctx g
  in
  let tp_sample () =
    let ctx = fresh () in
    snd (timed "types.tp" (fun () -> List.iter (fun t -> ignore (Modelcheck.Types.tp ctx ~q:l.q t)) tuples))
  in
  let ltp_sample ~r =
    let ctx = fresh () in
    snd
      (timed "types.ltp" (fun () ->
           List.iter (fun t -> ignore (Modelcheck.Types.ltp ctx ~q:l.q ~r t)) tuples))
  in
  match l.solver with
  | "brute" ->
      let ctx = fresh () in
      let (), ms =
        timed "types.tp" (fun () ->
            over_params (fun t -> ignore (Modelcheck.Types.tp ctx ~q:l.q t)))
      in
      Acc.add "types.tp_brute_ms" ms;
      (* enumeration and majority vote on their own: the solver's sweep
         over the candidates, run again with every type already in the
         context's memo, so what is left is lookups, tallies and the
         choice of the best candidate *)
      with_span "erm.vote" (fun () ->
          let best = ref max_int in
          Graph.Tuple.iter_all ~n ~k:l.ell (fun w ->
              let votes = Hashtbl.create 64 in
              List.iter
                (fun (v, y) ->
                  let t = Modelcheck.Types.tp ctx ~q:l.q (Graph.Tuple.append v w) in
                  let pos, neg =
                    match Hashtbl.find_opt votes t with
                    | Some c -> c
                    | None ->
                        let c = (ref 0, ref 0) in
                        Hashtbl.replace votes t c;
                        c
                  in
                  incr (if y then pos else neg))
                lam;
              let errs = Hashtbl.fold (fun _ (pos, neg) e -> e + min !pos !neg) votes 0 in
              if errs < !best then best := errs))
  | "counting" ->
      reset_tables ();
      let ctx = Modelcheck.Ctypes.make_ctx g in
      with_span "ctypes.ctp" (fun () ->
          over_params (fun t -> ignore (Modelcheck.Ctypes.ctp ctx ~q:l.q ~tmax:l.tmax t)))
  | "nd" ->
      let conflicts =
        with_span "nd.conflicts" (fun () -> Folearn.Erm_nd.conflicts g ~q:l.q ~r:1 lam)
      in
      let critical = List.concat_map (fun (a, b) -> [ a; b ]) conflicts in
      ignore
        (with_span "nd.centre_set" (fun () ->
             Folearn.Erm_nd.centre_set g ~r:1 ~cap:(List.length critical + 1) ~critical));
      ignore
        (with_span "splitter.game" (fun () ->
             Splitter.Game.trace g ~r:1
               ~connector:(Splitter.Strategy.connector_max_ball ~r:1)
               ~splitter:Splitter.Strategy.best_heuristic));
      Acc.add "types.nd_ms" (tp_sample () +. ltp_sample ~r:1)
  | _ ->
      ignore (tp_sample ());
      ignore (ltp_sample ~r:(Fo.Gaifman.radius l.q))

let other_proper o =
  let p = o.params in
  let g = with_span "cgraph.build" (fun () -> build_graph p) in
  match o.op with
  | "mc" ->
      let phi = with_span "fo.parse" (fun () -> parse_formula (str p "formula")) in
      ignore (with_span "modelcheck.eval" (fun () -> Modelcheck.Eval.sentence g phi))
  | "types" ->
      let q = int_d p "q" 1 and k = int_d p "k" 1 in
      let classes =
        with_span "types.partition" (fun () ->
            let ctx = Modelcheck.Types.make_ctx g in
            Modelcheck.Types.partition_by_tp ctx ~q
              (Graph.Tuple.all ~n:(Graph.order g) ~k))
      in
      if J.member "hintikka" p = Some (J.Bool true) then
        with_span "hintikka" (fun () ->
            List.iter
              (fun (ty, _) ->
                let f =
                  Modelcheck.Hintikka.of_type ~colors:(Graph.color_names g) ty
                in
                Acc.add "hintikka.formula_size" (float_of_int (Fo.Formula.size f)))
              classes)
  | "game" ->
      ignore
        (with_span "splitter.game" (fun () ->
             let r = int_d p "r" 2 in
             Splitter.Game.trace g ~r
               ~connector:(Splitter.Strategy.connector_max_ball ~r)
               ~splitter:Splitter.Strategy.best_heuristic))
  | op -> die "unknown op %S" op

let trace ops_file spans_file =
  let ops = read_ops ops_file in
  let records = ref [] and fuel_ratios = ref [] in
  (* untraced pass first: the same op bodies, spans and counters off *)
  let run_all ~traced =
    tracing := traced;
    if traced then Obs.enable () else Obs.disable ();
    Obs.reset_all ();
    (* only the op bodies count: checks and attribution passes are
       extra work the traced run does on top *)
    let wall = ref 0.0 in
    let body f =
      let t0 = now () in
      let r = f () in
      wall := !wall +. ms_between t0 (now ());
      r
    in
    List.iteri
      (fun i o ->
        cur_op := i;
        reset_tables ();
        with_span ("op." ^ o.op) (fun () ->
            if o.op = "learn" then begin
              let l, g, clean, lam, plan, spent, s, tables, ctables, phi =
                body (fun () -> learn_proper o.params)
              in
              if traced then begin
                Obs.disable ();
                Acc.max_ "types.table_live" (float_of_int tables.Modelcheck.Types.live);
                Acc.max_ "modelcheck.types.table_bytes"
                  (float_of_int tables.Modelcheck.Types.bytes);
                Acc.max_ "modelcheck.ctypes.table_bytes"
                  (float_of_int ctables.Modelcheck.Ctypes.bytes);
                Acc.add "hintikka.formula_size" (float_of_int (Fo.Formula.size phi));
                let rank = Folearn.Hypothesis.quantifier_rank s.hyp in
                let size = Fo.Formula.size phi in
                (* naive evaluation costs up to n^rank per formula node:
                   relativised local witnesses are out of reach *)
                let feasible =
                  (float_of_int (Graph.order g) ** float_of_int rank)
                  *. float_of_int size *. float_of_int (List.length lam)
                  <= reeval_limit
                in
                let e' =
                  if feasible then
                    num (fst (timed "check.reeval" (fun () -> reeval g s.hyp phi lam)))
                  else begin
                    Acc.add "check.reeval_skipped" 1.0;
                    J.Null
                  end
                in
                Acc.add "guard.fuel" (float_of_int spent.Guard.fuel);
                Acc.max_ "guard.table_rows" (float_of_int spent.Guard.table_rows);
                Acc.max_ "guard.ball_peak" (float_of_int spent.Guard.ball_peak);
                (match env_hi plan.Analysis.Plan.fuel_total with
                | Some hi when hi > 0 ->
                    fuel_ratios := (float_of_int spent.Guard.fuel /. float_of_int hi) :: !fuel_ratios
                | _ -> ());
                records :=
                  J.Obj
                    [
                      ("op", J.Int i); ("solver", J.String l.solver);
                      ("err", num s.err); ("reeval_err", e');
                      ("reevaluated", J.Bool feasible); ("rank", J.Int rank);
                      ("formula_size", J.Int size);
                      ("bound", num (error_bound l.solver clean lam));
                      ("plan_fuel", env_json plan.Analysis.Plan.fuel_total);
                      ("plan_table", env_json plan.Analysis.Plan.table_total);
                      ("plan_exact", J.Bool plan.Analysis.Plan.exact);
                      ("spent", Guard.spent_to_json spent);
                    ]
                  :: !records;
                attribute l g lam;
                Obs.enable ()
              end
            end
            else body (fun () -> other_proper o)))
      ops;
    reset_tables ();
    !wall
  in
  let untraced_ms = run_all ~traced:false in
  Hashtbl.reset Acc.h;
  let traced_ms = run_all ~traced:true in
  Obs.disable ();
  let snap = Obs.Metric.snapshot () in
  let total, self = layer_times () in
  let t name = Option.value ~default:0.0 (Hashtbl.find_opt total name) in
  let c name = float_of_int (Obs.Metric.find_counter snap name) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let hist_p50 name =
    match List.assoc_opt name snap.Obs.Metric.histograms with
    | Some hs -> Obs.Metric.quantile hs 0.5
    | None -> 0.0
  in
  let par_tasks =
    List.fold_left
      (fun a (n, v) ->
        if String.starts_with ~prefix:"par.tasks." n then a + v else a)
      0 snap.Obs.Metric.counters
  in
  let brute_ms = t "erm.brute_solve" in
  let metrics =
    [
      ("cgraph.build_ms", t "cgraph.build");
      ("cgraph.bfs.calls", c "cgraph.bfs.calls");
      ("cgraph.ops.neighborhood_calls", c "cgraph.ops.neighborhood_calls");
      ("cgraph.bfs.ball_size.p50", hist_p50 "cgraph.bfs.ball_size");
      ("fo.parse_ms", t "fo.parse");
      ("compile.label_ms", t "compile.label");
      ("modelcheck.compile.compiles", c "modelcheck.compile.compiles");
      ("modelcheck.compile.cache_hits", c "modelcheck.compile.cache_hits");
      ( "compile.hit_ratio",
        ratio (c "modelcheck.compile.cache_hits")
          (c "modelcheck.compile.cache_hits" +. c "modelcheck.compile.compiles") );
      ("modelcheck.eval.calls", c "modelcheck.eval.calls");
      ("modelcheck.eval.quantifier_nodes", c "modelcheck.eval.quantifier_nodes");
      ("types.tp_ms", t "types.tp" +. t "types.partition");
      ("modelcheck.types.tp_misses", c "modelcheck.types.tp_misses");
      ("modelcheck.types.tp_hits", c "modelcheck.types.tp_hits");
      ( "types.memo_hit_ratio",
        ratio (c "modelcheck.types.tp_hits")
          (c "modelcheck.types.tp_hits" +. c "modelcheck.types.tp_misses") );
      ("types.table_live", Acc.get "types.table_live");
      ("modelcheck.types.table_bytes", Acc.get "modelcheck.types.table_bytes");
      ("modelcheck.types.shard_merges", c "modelcheck.types.shard_merges");
      ("types.ltp_ms", t "types.ltp");
      ("modelcheck.types.ltp_misses", c "modelcheck.types.ltp_misses");
      ("modelcheck.types.ltp_hits", c "modelcheck.types.ltp_hits");
      ("types.tp_share_of_brute", ratio (Acc.get "types.tp_brute_ms") brute_ms);
      ("types.tp_share_of_nd", ratio (Acc.get "types.nd_ms") (t "erm.nd_solve"));
      ("ctypes.ctp_ms", t "ctypes.ctp");
      ("modelcheck.ctypes.table_bytes", Acc.get "modelcheck.ctypes.table_bytes");
      ("hintikka.ms", t "hintikka");
      ("hintikka.formula_size", Acc.get "hintikka.formula_size");
      ("modelcheck.hintikka.formulas_built", c "modelcheck.hintikka.formulas_built");
      ("erm.brute_solve_ms", brute_ms);
      ("erm.counting_solve_ms", t "erm.counting_solve");
      ("erm.nd_solve_ms", t "erm.nd_solve");
      ("erm.local_solve_ms", t "erm.local_solve");
      ("erm.vote_ms", t "erm.vote");
      ("erm.hypotheses_enumerated", c "erm.hypotheses_enumerated");
      ("erm.consistency_checks", c "erm.consistency_checks");
      ("nd.conflicts_ms", t "nd.conflicts");
      ("nd.centre_set_ms", t "nd.centre_set");
      ("nd.branches", Acc.get "nd.branches");
      ("nd.rounds", Acc.get "nd.rounds");
      ("local.pool_size", Acc.get "local.pool_size");
      ("local.vertices_touched", Acc.get "local.vertices_touched");
      ("splitter.class_ms", t "splitter.class");
      ("splitter.game_ms", t "splitter.game");
      ("plan.precheck_ms", t "plan.precheck");
      ("guard.fuel", Acc.get "guard.fuel");
      ("guard.table_rows", Acc.get "guard.table_rows");
      ("guard.ball_peak", Acc.get "guard.ball_peak");
      ("plan.fuel_ratio", median !fuel_ratios);
      ("par.tasks", float_of_int par_tasks);
      ("par.task_retries", c "par.task_retries");
      ("resil.snapshot_writes", c "resil.snapshot_writes");
      ("check.reeval_skipped", Acc.get "check.reeval_skipped");
      ("obs.trace_overhead_frac", ratio (traced_ms -. untraced_ms) untraced_ms);
    ]
  in
  let self_json =
    J.Obj
      (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) self []
      |> List.sort compare)
  in
  write_file spans_file
    (J.to_string
       (J.Obj
          [
            ("spans", spans_json ()); ("self_ms", self_json);
            ("plan_vs_spent", J.List (List.rev !records));
          ]));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("metrics", J.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
            ("plan_vs_spent", J.List (List.rev !records));
          ]))

(* ------------------------------------------------------------------ *)
(* load: a closed loop of CONNS clients against a running daemon        *)
(* ------------------------------------------------------------------ *)

(* Type ids ("#17") are registry handles: a warm daemon hands out other
   ids than a fresh process for the same classes, so both sides are
   renumbered by first appearance before comparing. *)
let normalise_ids s =
  let b = Buffer.create (String.length s) in
  let ids = Hashtbl.create 16 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '#' && !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      let id = String.sub s (!i + 1) (!j - !i - 1) in
      let v =
        match Hashtbl.find_opt ids id with
        | Some v -> v
        | None ->
            let v = Hashtbl.length ids in
            Hashtbl.replace ids id v;
            v
      in
      Buffer.add_string b ("#" ^ string_of_int v);
      i := !j
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* A warm daemon also orders the operands of a witness formula's
   conjunctions and disjunctions by those ids.  So the served stdout is
   compared with Serve.Exec.run_op's as a list of segments: text lines,
   which must be equal once ids are renumbered, and formulas (runs of
   lines indented by two spaces, as Hypothesis.pp and `types --hintikka`
   print them), which are parsed and must be equal once the operands of
   every And and Or are sorted.  Nothing else is normalised. *)
type segment = Text of string | Formula of Fo.Formula.t | Unparsed of string

let rec sort_operands (f : Fo.Formula.t) : Fo.Formula.t =
  let sorted l = List.sort Fo.Formula.compare (List.map sort_operands l) in
  match f with
  | And l -> And (sorted l)
  | Or l -> Or (sorted l)
  | Not a -> Not (sort_operands a)
  | Implies (a, b) -> Implies (sort_operands a, sort_operands b)
  | Iff (a, b) -> Iff (sort_operands a, sort_operands b)
  | Exists (v, a) -> Exists (v, sort_operands a)
  | Forall (v, a) -> Forall (v, sort_operands a)
  | CountGe (c, v, a) -> CountGe (c, v, sort_operands a)
  | True | False | Atom _ -> f

let segments s =
  let flush acc = function
    | [] -> acc
    | block -> (
        let src = String.concat "\n" (List.rev block) in
        match Fo.Parser.parse_result src with
        | Ok f -> Formula (sort_operands f) :: acc
        | Error _ -> Unparsed src :: acc)
  in
  let acc, block =
    List.fold_left
      (fun (acc, block) line ->
        if String.starts_with ~prefix:"  " line then (acc, line :: block)
        else (Text line :: flush acc block, []))
      ([], [])
      (String.split_on_char '\n' (normalise_ids s))
  in
  List.rev (flush acc block)

let same_segments =
  List.equal (fun a b ->
      match (a, b) with
      | Text a, Text b | Unparsed a, Unparsed b -> String.equal a b
      | Formula a, Formula b -> Fo.Formula.equal a b
      | _ -> false)

let digest_exact s = Digest.to_hex (Digest.string s)

(* A served learn answer checked on its own sample: the reported
   training error meets its bound, and a printed witness formula,
   re-evaluated with Modelcheck.Eval with the printed parameters w,
   makes exactly the reported error (the CLI prints 4 decimals).  nd
   and local answers print no formula. *)
let learn_answer_ok params segs =
  let l = learn_of params in
  let g = build_graph params in
  let clean, lam = label g (parse_formula (str params "target")) l in
  let text prefix =
    List.find_map
      (function
        | Text s when String.starts_with ~prefix s ->
            Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
        | _ -> None)
      segs
  in
  let bound = error_bound l.solver clean lam in
  match Option.bind (text "training error: ") float_of_string_opt with
  | None -> false
  | Some err -> (
      err <= bound +. 5e-5
      &&
      let formula = List.find_map (function Formula f -> Some f | _ -> None) segs in
      match (formula, text "w = (") with
      | None, _ -> not (List.exists (function Unparsed _ -> true | _ -> false) segs)
      | Some _, None -> false
      | Some phi, Some w ->
          let params =
            String.split_on_char ',' (String.sub w 0 (max 0 (String.length w - 1)))
            |> List.filter (fun x -> String.trim x <> "")
            |> List.map (fun x -> int_of_string (String.trim x))
            |> Array.of_list
          in
          Float.abs (reeval_formula g ~k:l.k ~params phi lam -. err) <= 5e-5)

let request op params =
  Serve.Proto.request_to_json
    { Serve.Proto.tenant = "bench"; op; budget = Serve.Proto.no_budget; params }

(* a job's params get a fresh seed on every pass over the mix, so each
   submission is new durable work rather than a lookup of a done job *)
let job_params params pass =
  match params with
  | J.Obj kvs ->
      let seed = int_d params "seed" 1 + (1000 * pass) in
      J.Obj (("seed", J.Int seed) :: List.remove_assoc "seed" kvs)
  | j -> j

type outcome = {
  idx : int;
  o_op : string;
  o_kind : string;
  o_solver : string;
  o_params : J.t;
  lat_ms : float;
  submit_ms : float;
  poll_ms : float;
  status : string;
  exact : string;
  resp : J.t;
}

let rpc addr req =
  match Serve.Client.rpc ~timeout_s:120.0 addr req with
  | Ok r -> r
  | Error e -> Serve.Proto.error ~message:e

let do_request addr o params =
  let t0 = now () in
  if o.kind = "job" then begin
    let r = rpc addr (request "submit" params) in
    let t_sub = now () in
    let id =
      Option.bind (J.member "job" r) (fun j -> Option.bind (J.member "id" j) J.to_string_opt)
    in
    let rec poll id =
      let r = rpc addr (request "poll" (J.Obj [ ("id", J.String id) ])) in
      match Serve.Proto.resp_status r with
      | "queued" | "running" | "accepted" ->
          Unix.sleepf 0.002;
          poll id
      | _ -> r
    in
    let final = match id with Some id -> poll id | None -> r in
    let t1 = now () in
    (t0, t_sub, t1, final)
  end
  else
    let r = rpc addr (request o.op params) in
    let t1 = now () in
    (t0, t1, t1, r)

let load addr_s ops_file seconds conns mode spans_file metrics_addr =
  let addr =
    match Pulse.Addr.parse addr_s with Ok a -> a | Error e -> die "%s" e
  in
  let ops = Array.of_list (read_ops ops_file) in
  let len = Array.length ops in
  if mode = "warm" then begin
    (* one untimed pass over the mix: cold daemon state gets warm *)
    let bad = ref 0 in
    Array.iteri
      (fun _ o ->
        let _, _, _, r = do_request addr o o.params in
        if Serve.Proto.resp_status r <> "complete" then incr bad)
      ops;
    print_endline (J.to_string (J.Obj [ ("failed", J.Int !bad); ("attempted", J.Int len) ]));
    exit 0
  end;
  let traced = mode = "traced" in
  let next = Atomic.make 0 in
  let lock = Mutex.create () in
  let results = ref [] in
  let t_start = now () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let client () =
    let rec loop () =
      (* every request of the mix runs at least once, however short the window *)
      if Atomic.get next < len || Int64.compare (now ()) deadline < 0 then begin
        let i = Atomic.fetch_and_add next 1 in
        let o = ops.(i mod len) in
        let params = if o.kind = "job" then job_params o.params (i / len) else o.params in
        let t0, t_sub, t1, r = do_request addr o params in
        if traced then begin
          let root = record ~name:("rpc." ^ o.kind) ~parent:(-1) ~op_id:i t0 t1 in
          if o.kind = "job" then begin
            ignore (record ~name:"serve.submit" ~parent:root ~op_id:i t0 t_sub);
            ignore (record ~name:"serve.poll_wait" ~parent:root ~op_id:i t_sub t1)
          end
        end;
        let res =
          {
            idx = i;
            o_op = o.op;
            o_kind = o.kind;
            o_solver = str ~default:"" o.params "solver";
            o_params = params;
            lat_ms = ms_between t0 t1;
            submit_ms = ms_between t0 t_sub;
            poll_ms = ms_between t_sub t1;
            status = Serve.Proto.resp_status r;
            exact = digest_exact (Serve.Proto.resp_stdout r);
            resp = r;
          }
        in
        Mutex.protect lock (fun () -> results := res :: !results);
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init conns (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  let elapsed_s = Int64.to_float (Int64.sub (now ()) t_start) /. 1e9 in
  let results = List.sort (fun a b -> compare a.idx b.idx) !results in
  (* daemon-side counters: one /metrics.json read, timed *)
  let scrape =
    match metrics_addr with
    | Some m when traced -> (
        match Pulse.Addr.parse m with
        | Error _ -> J.Null
        | Ok a -> (
            let t0 = now () in
            match Pulse.Client.get a "/metrics.json" with
            | Ok body ->
                let ms = ms_between t0 (now ()) in
                J.Obj
                  [
                    ("scrape_ms", num ms);
                    ("metrics", Result.value ~default:J.Null (J.of_string body));
                  ]
            | Error _ -> J.Null))
    | _ -> J.Null
  in
  (* correctness, after the timed window so it does not compete with
     the daemon: each distinct request is run once in-process, and each
     distinct served answer is compared with it and checked on its own *)
  let expected = Hashtbl.create 64 in
  let exec_ms = Hashtbl.create 64 in
  let key r = r.o_op ^ "\n" ^ J.to_string r.o_params in
  List.iter
    (fun r ->
      let k = key r in
      if not (Hashtbl.mem expected k) then begin
        reset_tables ();
        let op = if r.o_kind = "job" then "learn" else r.o_op in
        let t0 = now () in
        let run = Serve.Exec.run_op ~op ~params:r.o_params () in
        Hashtbl.replace exec_ms k (ms_between t0 (now ()));
        Hashtbl.replace expected k
          (if run.Serve.Exec.code = 0 then
             Some (segments run.Serve.Exec.out, run.Serve.Exec.out)
           else None)
      end)
    results;
  let verdicts = Hashtbl.create 256 in
  let answer_ok r =
    let k = key r in
    match Hashtbl.find_opt verdicts (k, r.exact) with
    | Some v -> v
    | None ->
        let v =
          match Hashtbl.find expected k with
          | None -> false
          | Some (exp_segs, _) ->
              let segs = segments (Serve.Proto.resp_stdout r.resp) in
              same_segments segs exp_segs
              && (r.o_op <> "learn" || learn_answer_ok r.o_params segs)
        in
        Hashtbl.replace verdicts (k, r.exact) v;
        v
  in
  let shown = ref 0 in
  let ok r =
    let good = r.status = "complete" && answer_ok r in
    (* keep the first few mismatches for diagnosis *)
    if (not good) && !shown < 3 then begin
      incr shown;
      let base = Filename.concat (Filename.dirname spans_file) (Printf.sprintf "mismatch-%d" !shown) in
      write_file (base ^ ".served.txt") (Serve.Proto.resp_stdout r.resp);
      write_file (base ^ ".expected.txt")
        (match Hashtbl.find expected (key r) with Some (_, o) -> o | None -> "(exit code not 0)")
    end;
    good
  in
  let frame_ms r =
    let t0 = now () in
    let ok_dec s = match Serve.Frame.decode s with Ok _ -> () | Error e -> die "frame: %s" e in
    ok_dec (Serve.Frame.encode (request r.o_op r.o_params));
    ok_dec (Serve.Frame.encode r.resp);
    ms_between t0 (now ())
  in
  let per =
    List.map
      (fun r ->
        let base =
          [
            ("op", J.String r.o_op); ("kind", J.String r.o_kind);
            ("solver", J.String r.o_solver); ("lat_ms", num r.lat_ms);
            ("ok", J.Bool (ok r)); ("status", J.String r.status);
            ( "bytewise",
              J.Bool
                (match Hashtbl.find expected (key r) with
                | Some (_, o) -> digest_exact o = r.exact
                | None -> false) );
          ]
        in
        let extra =
          if not traced then []
          else
            [
              ("exec_ms", num (Hashtbl.find exec_ms (key r)));
              ("frame_ms", num (frame_ms r));
            ]
            @
            if r.o_kind = "job" then
              [ ("submit_ms", num r.submit_ms); ("poll_wait_ms", num r.poll_ms) ]
            else []
        in
        J.Obj (base @ extra))
      results
  in
  if traced then
    write_file spans_file (J.to_string (J.Obj [ ("spans", spans_json ()) ]));
  print_endline
    (J.to_string
       (J.Obj
          [ ("elapsed_s", num elapsed_s); ("requests", J.List per); ("scrape", scrape) ]))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "expect"; ops ] -> expect ops
  | [ "trace"; ops; spans ] -> trace ops spans
  | [ "load"; addr; ops; secs; conns; mode; spans ] ->
      load addr ops (float_of_string secs) (int_of_string conns) mode spans None
  | [ "load"; addr; ops; secs; conns; mode; spans; maddr ] ->
      load addr ops (float_of_string secs) (int_of_string conns) mode spans (Some maddr)
  | _ -> die "usage: probe expect OPS | trace OPS SPANS | load ADDR OPS SECS CONNS MODE SPANS [METRICS_ADDR]"
