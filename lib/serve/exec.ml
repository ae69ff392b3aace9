(* The learn/mc/types/game ops.  The CLI calls [run] with the process
   streams and the service calls [run_op] with buffers, so a served
   response's stdout is the one-shot CLI's byte for byte. *)

open Cgraph
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* graph / colour / formula parsing                                    *)
(* ------------------------------------------------------------------ *)

let parse_graph_spec spec =
  let fail msg = Error (`Msg msg) in
  match String.split_on_char ':' spec with
  | "file" :: rest -> (
      let path = String.concat ":" rest in
      try Ok (Io.load path) with
      | Io.Format_error m -> fail (Printf.sprintf "%s: %s" path m)
      | Sys_error m -> fail m)
  | [ "path"; n ] -> Ok (Gen.path (int_of_string n))
  | [ "cycle"; n ] -> Ok (Gen.cycle (int_of_string n))
  | [ "clique"; n ] -> Ok (Gen.clique (int_of_string n))
  | [ "star"; n ] -> Ok (Gen.star (int_of_string n))
  | [ "cbt"; d ] -> Ok (Gen.complete_binary_tree (int_of_string d))
  | [ "grid"; wh ] -> (
      match String.split_on_char 'x' wh with
      | [ w; h ] -> Ok (Gen.grid (int_of_string w) (int_of_string h))
      | _ -> fail "grid spec must be grid:WxH")
  | [ "tree"; n ] -> Ok (Gen.random_tree ~seed:42 (int_of_string n))
  | [ "tree"; n; seed ] ->
      Ok (Gen.random_tree ~seed:(int_of_string seed) (int_of_string n))
  | [ "deg"; n; d ] ->
      Ok
        (Gen.random_bounded_degree ~seed:42 ~n:(int_of_string n)
           ~d:(int_of_string d))
  | [ "deg"; n; d; seed ] ->
      Ok
        (Gen.random_bounded_degree ~seed:(int_of_string seed)
           ~n:(int_of_string n) ~d:(int_of_string d))
  | [ "gnp"; n; p ] ->
      Ok (Gen.gnp ~seed:42 ~n:(int_of_string n) ~p:(float_of_string p))
  | [ "gnp"; n; p; seed ] ->
      Ok
        (Gen.gnp ~seed:(int_of_string seed) ~n:(int_of_string n)
           ~p:(float_of_string p))
  | _ -> fail (Printf.sprintf "unknown graph spec %S (see --help)" spec)

let parse_color s =
  match String.index_opt s '=' with
  | None -> Error (`Msg "colour must be NAME=v1,v2,...")
  | Some i -> (
      let name = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match
        if rest = "" then []
        else List.map int_of_string (String.split_on_char ',' rest)
      with
      | members -> Ok (name, members)
      | exception _ -> Error (`Msg "bad colour spec"))


(* a usage error: the already-formatted stderr line(s), exit code 2 *)
exception Usage of string

let usage fmt = Format.kasprintf (fun m -> raise (Usage m)) fmt

let catch_usage f = match f () with v -> Ok v | exception Usage m -> Error m

let parse_formula ~cmd ~flag s =
  match Fo.Parser.parse_result s with
  | Ok f -> Ok f
  | Error e ->
      Error
        (Format.asprintf "folearn %s: %s: %a" cmd flag Fo.Parser.pp_error e)

(* ------------------------------------------------------------------ *)
(* requests                                                            *)
(* ------------------------------------------------------------------ *)

type solver = [ `Brute | `Nd | `Counting | `Local ]

let solvers =
  [ ("brute", `Brute); ("nd", `Nd); ("counting", `Counting); ("local", `Local) ]

let plan_solver : solver -> Analysis.Plan.solver = function
  | `Brute -> Analysis.Plan.Brute
  | `Nd -> Analysis.Plan.Nd
  | `Counting -> Analysis.Plan.Counting
  | `Local -> Analysis.Plan.Local

let name_of_solver (s : solver) =
  fst (List.find (fun (_, s') -> s' = s) solvers)

type learn_p = {
  lp_g : Graph.t;
  lp_target : Fo.Formula.t;
  lp_k : int;
  lp_ell : int;
  lp_q : int;
  lp_solver : solver;
  lp_tmax : int;
  lp_noise : float;
  lp_m : int;
  lp_seed : int;
}

type prepared = {
  p : learn_p;
  tuples : Graph.Tuple.t list;
  lam : Folearn.Sample.t;
}

let check_target ~cmd g ~k target =
  match
    Analysis.Diagnostic.errors
      (Analysis.Fo_check.check ~vocab:(Analysis.Vocab.of_graph g)
         ~allowed_free:(Folearn.Hypothesis.xvars k) target)
  with
  | [] -> Ok ()
  | errs ->
      Error
        (Printf.sprintf
           "folearn %s: the target must be a query over x1..x%d in the \
            graph's vocabulary:\n\
            %s"
           cmd k
           (Analysis.Diagnostic.render_list errs))

let sample_tuples g ~k ~m ~seed =
  if m = 0 then Folearn.Sample.all_tuples g ~k
  else Folearn.Sample.random_tuples ~seed g ~k ~m

(* the parameters a solver would reject deep inside the run, or crash
   on, rejected up front with the checks the solvers use *)
let check_params ~cmd g ~k ~ell ~q ~solver ~tmax ~noise =
  let tmax = match solver with `Counting -> Some tmax | _ -> None in
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "folearn %s: %s" cmd m)) fmt
  in
  match
    Analysis.Diagnostic.errors (Analysis.Guard.budgets ~ell ~q ?tmax ~k ())
  with
  | _ :: _ as errs -> fail "%s" (Analysis.Diagnostic.render_list errs)
  | [] when not (Folearn.Sample.is_probability noise) ->
      fail "noise = %g, but a label-flip probability in [0, 1] is required"
        noise
  | [] -> (
      let module Coder = Modelcheck.Types.Coder in
      match Coder.check_arity (Coder.make g) (k + ell + q) with
      | () -> Ok ()
      | exception Invalid_argument m -> fail "k + ell + q: %s" m)

let prepare p =
  let module Sam = Folearn.Sample in
  match
    Result.bind (check_target ~cmd:"learn" p.lp_g ~k:p.lp_k p.lp_target)
      (fun () ->
        check_params ~cmd:"learn" p.lp_g ~k:p.lp_k ~ell:p.lp_ell ~q:p.lp_q
          ~solver:p.lp_solver ~tmax:p.lp_tmax ~noise:p.lp_noise)
  with
  | Error _ as e -> e
  | Ok () ->
      let tuples = sample_tuples p.lp_g ~k:p.lp_k ~m:p.lp_m ~seed:p.lp_seed in
      let lam =
        Sam.label_with_query p.lp_g ~formula:p.lp_target
          ~xvars:(Folearn.Hypothesis.xvars p.lp_k) tuples
      in
      let lam =
        if p.lp_noise > 0.0 then
          Sam.flip_noise ~seed:p.lp_seed ~p:p.lp_noise lam
        else lam
      in
      Ok { p; tuples; lam }

type request =
  | Learn of prepared
  | Mc of { g : Graph.t; phi : Fo.Formula.t; via_erm : bool }
  | Types of { g : Graph.t; q : int; k : int; hintikka : bool }
  | Game of { g : Graph.t; r : int }

let mc g phi ~via_erm =
  match Fo.Formula.free_vars phi with
  | [] -> Ok (Mc { g; phi; via_erm })
  | fv ->
      Error
        (Printf.sprintf
           "folearn mc: --formula must be a sentence; free variable%s: %s"
           (if List.length fv > 1 then "s" else "")
           (String.concat ", " fv))

let run_id_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let learn_run_id p =
  run_id_of
    [
      "learn"; Io.to_string p.lp_g;
      Fo.Formula.to_string p.lp_target;
      string_of_int p.lp_k; string_of_int p.lp_ell; string_of_int p.lp_q;
      name_of_solver p.lp_solver;
      string_of_int p.lp_tmax; string_of_float p.lp_noise;
      string_of_int p.lp_m; string_of_int p.lp_seed;
    ]

let run_id = function
  | Learn { p; _ } -> learn_run_id p
  | Mc { g; phi; via_erm } ->
      run_id_of
        [ "mc"; Io.to_string g; Fo.Formula.to_string phi;
          string_of_bool via_erm ]
  | Types { g; q; k; hintikka } ->
      run_id_of
        [ "types"; Io.to_string g; string_of_int q; string_of_int k;
          string_of_bool hintikka ]
  | Game { g; r } -> run_id_of [ "game"; Io.to_string g; string_of_int r ]

let solver_name = function
  | Learn { p; _ } -> name_of_solver p.lp_solver
  | Mc _ -> "mc"
  | Types _ -> "types"
  | Game _ -> "game"

(* -- JSON parameter objects ---------------------------------------- *)

let p_str name j = Option.bind (J.member name j) J.to_string_opt

let p_req_str ~op name j =
  match p_str name j with
  | Some s -> s
  | None -> usage "folearn %s: missing required parameter %S" op name

let p_int ~default name j =
  Option.value ~default (Option.bind (J.member name j) J.to_int_opt)

let p_float ~default name j =
  Option.value ~default (Option.bind (J.member name j) J.to_float_opt)

let p_bool ~default name j =
  match J.member name j with Some (J.Bool b) -> b | _ -> default

let p_colors ~op j =
  match J.member "colors" j with
  | None | Some J.Null -> []
  | Some (J.List l) ->
      List.map
        (fun c ->
          match Option.bind (J.to_string_opt c) (fun s ->
                    Result.to_option (parse_color s)) with
          | Some kv -> kv
          | None -> usage "folearn %s: bad colour spec" op)
        l
  | Some _ -> usage "folearn %s: \"colors\" must be a list of strings" op

let p_graph ~op j =
  let spec = p_req_str ~op "graph" j in
  match parse_graph_spec spec with
  | Ok g -> Graph.with_colors g (p_colors ~op j)
  | Error (`Msg m) -> usage "folearn %s: --graph: %s" op m
  | exception _ -> usage "folearn %s: bad graph spec %S" op spec

let ok_or_usage = function Ok v -> v | Error m -> raise (Usage m)

let p_formula ~op ~flag name j =
  ok_or_usage (parse_formula ~cmd:op ~flag (p_req_str ~op name j))

let learn_params j =
  let target = p_req_str ~op:"learn" "target" j in
  let solver =
    let s = Option.value ~default:"brute" (p_str "solver" j) in
    match List.assoc_opt s solvers with
    | Some s -> s
    | None -> usage "folearn learn: unknown solver %S" s
  in
  let target =
    ok_or_usage (parse_formula ~cmd:"learn" ~flag:"--target" target)
  in
  {
    lp_g = p_graph ~op:"learn" j;
    lp_target = target;
    lp_k = p_int ~default:1 "k" j;
    lp_ell = p_int ~default:0 "ell" j;
    lp_q = p_int ~default:1 "q" j;
    lp_solver = solver;
    lp_tmax = p_int ~default:2 "tmax" j;
    lp_noise = p_float ~default:0.0 "noise" j;
    lp_m = p_int ~default:0 "m" j;
    lp_seed = p_int ~default:1 "seed" j;
  }

let request_of_json ~op j =
  catch_usage @@ fun () ->
  match op with
  | "learn" -> Learn (ok_or_usage (prepare (learn_params j)))
  | "mc" ->
      let g = p_graph ~op j in
      let phi = p_formula ~op ~flag:"--formula" "formula" j in
      ok_or_usage (mc g phi ~via_erm:(p_bool ~default:false "via_erm" j))
  | "types" ->
      Types
        {
          g = p_graph ~op j;
          q = p_int ~default:1 "q" j;
          k = p_int ~default:1 "k" j;
          hintikka = p_bool ~default:false "hintikka" j;
        }
  | "game" -> Game { g = p_graph ~op j; r = p_int ~default:2 "r" j }
  | _ -> usage "folearn serve: unknown op %S" op

let learn_identity j =
  catch_usage (fun () ->
      let p = learn_params j in
      (learn_run_id p, name_of_solver p.lp_solver))

(* ------------------------------------------------------------------ *)
(* execution                                                           *)
(* ------------------------------------------------------------------ *)

let exit_degraded = 3
let exit_exhausted = 4

let report_exhausted ~err ~cmd ~reason ~checkpoint ~(spent : Guard.spent) =
  let what =
    match reason with
    | Guard.Interrupted -> "interrupted"
    | r -> "budget exhausted: " ^ Guard.reason_to_string r
  in
  Format.fprintf err
    "folearn %s: %s at %s (fuel %d, %.3f s, table %d, ball %d)@." cmd what
    (Guard.checkpoint_to_string checkpoint)
    spent.Guard.fuel
    (Int64.to_float spent.Guard.elapsed_ns /. 1e9)
    spent.Guard.table_rows spent.Guard.ball_peak;
  Pulse.Fdr.dump_now
    ~reason:
      (match reason with
      | Guard.Interrupted -> "interrupted"
      | r -> "guard.exhausted:" ^ Guard.reason_to_string r)

(* an interrupted run exits 3 even with nothing salvaged: the operator
   asked for the stop, and the snapshot (if any) holds the progress *)
let exhausted_exit reason ~salvaged =
  if reason = Guard.Interrupted || salvaged then exit_degraded
  else exit_exhausted

(* one outcome handler for every op: 0 on a complete run; on
   exhaustion 3 when a best-so-far hypothesis (its true empirical
   error, but no min-error certificate) survived, 4 when nothing did *)
let conclude ~out ~err ~ckpt ~cmd outcome print =
  match outcome with
  | Guard.Complete r ->
      Resil.Ctl.flush ~complete:true ckpt;
      print r;
      0
  | Guard.Exhausted { best_so_far; reason; checkpoint; spent } ->
      Resil.Ctl.flush ckpt;
      report_exhausted ~err ~cmd ~reason ~checkpoint ~spent;
      (match best_so_far with
      | Some r ->
          Format.fprintf out
            "best-so-far hypothesis (no optimality certificate):@.";
          print r
      | None when cmd = "learn" ->
          Format.fprintf err "folearn learn: no hypothesis salvaged@."
      | None -> ());
      exhausted_exit reason ~salvaged:(Option.is_some best_so_far)

(* every learn report: the solver line, the training error, then the
   witness formula (exact sweeps) or the witness's parameters *)
let report out ~solver ~err ~witness hyp =
  Format.fprintf out "solver: %s@." solver;
  Format.fprintf out "training error: %.4f@." err;
  if witness then Format.fprintf out "%a@." Folearn.Hypothesis.pp hyp
  else
    Format.fprintf out "parameters: %a@." Graph.Tuple.pp
      (Folearn.Hypothesis.params hyp)

let report_sweep out p (r : Folearn.Sweep.result) =
  let solver =
    match p.lp_solver with
    | `Counting ->
        Printf.sprintf
          "exact counting ERM (FOC, thresholds <= %d; tried %d parameter \
           tuples)"
          p.lp_tmax r.params_tried
    | `Brute | `Nd | `Local ->
        Printf.sprintf "Prop 11 exact ERM (tried %d parameter tuples)"
          r.params_tried
  in
  report out ~solver ~err:r.err ~witness:true r.hypothesis

(* brute and counting are one candidate sweep with two type functions *)
let sweep { p; lam; _ } =
  let g = p.lp_g and k = p.lp_k and ell = p.lp_ell and q = p.lp_q in
  match p.lp_solver with
  | `Counting -> Folearn.Erm_counting.sweep g ~k ~ell ~q ~tmax:p.lp_tmax lam
  | `Brute | `Nd | `Local -> Folearn.Erm_brute.sweep g ~k ~ell ~q lam

let report_local out g (r : Folearn.Erm_local.result) =
  report out
    ~solver:
      (Printf.sprintf
         "sublinear local learner (pool %d, touched %d of %d vertices)"
         r.Folearn.Erm_local.pool_size r.Folearn.Erm_local.vertices_touched
         (Graph.order g))
    ~err:r.Folearn.Erm_local.err ~witness:false
    r.Folearn.Erm_local.hypothesis

(* degrade only under a real budget: an unlimited one (installed to
   drive the snapshot cadence or /progress) has nothing to degrade
   under, and a checkpointed run must resume bit-identically, which the
   chain's stage hand-offs (no stable candidate numbering) cannot *)
let degrades budget ckpt =
  let l = Guard.Budget.limits budget in
  (not (Resil.Ctl.active ckpt))
  && (l.l_fuel <> None || l.l_timeout_s <> None || l.l_max_table <> None
     || l.l_max_ball <> None || l.l_max_catalogue <> None)

let report_sample ~out { lam; _ } =
  Format.fprintf out "training sequence: %d examples (%d positive)@."
    (Folearn.Sample.size lam)
    (List.length (Folearn.Sample.positives lam))

let run_learn ~out ~err ?budget ~ckpt ~precheck ({ p; lam; _ } as prep) =
  let g = p.lp_g and k = p.lp_k and ell = p.lp_ell and q = p.lp_q in
  report_sample ~out prep;
  let conclude outcome print = conclude ~out ~err ~ckpt ~cmd:"learn" outcome print in
  match p.lp_solver with
  | `Brute | `Counting ->
      conclude
        (Folearn.Sweep.solve_budgeted ?budget ~precheck ~ckpt (sweep prep))
        (report_sweep out p)
  | `Nd ->
      let cls = Splitter.Nowhere_dense.of_graph "cli" g in
      let cfg =
        Folearn.Erm_nd.default_config ~radius:1 ~k ~ell_star:(max 1 ell)
          ~q_star:q cls
      in
      conclude
        (Folearn.Erm_nd.solve_budgeted ?budget ~precheck ~ckpt cfg g lam)
        (fun (rep : Folearn.Erm_nd.report) ->
          report out
            ~solver:
              (Printf.sprintf
                 "Theorem 13 (rounds %d, branches %d, ell used %d, rank %d)"
                 (List.length rep.Folearn.Erm_nd.rounds)
                 rep.Folearn.Erm_nd.branches_explored
                 rep.Folearn.Erm_nd.ell_used rep.Folearn.Erm_nd.q_used)
            ~err:rep.Folearn.Erm_nd.err ~witness:false
            rep.Folearn.Erm_nd.hypothesis)
  | `Local -> (
      match budget with
      | None ->
          report_local out g (Folearn.Erm_local.solve g ~k ~ell ~q lam);
          0
      | Some b when not (degrades b ckpt) ->
          conclude
            (Folearn.Erm_local.solve_budgeted ?budget ~precheck ~ckpt g ~k
               ~ell ~q lam)
            (report_local out g)
      | Some _ -> (
          (* the degradation chain: local at rank q, then exact brute
             ERM at ranks q-1, ..., 0, all racing one wall-clock
             deadline *)
          let print (l : Folearn.Degrade.learned) =
            List.iter
              (fun (a : Folearn.Degrade.attempt) ->
                Format.fprintf err
                  "folearn learn: stage %s at rank %d exhausted (%s at %s)@."
                  a.Folearn.Degrade.solver a.Folearn.Degrade.q
                  (Guard.reason_to_string a.Folearn.Degrade.reason)
                  (Guard.checkpoint_to_string a.Folearn.Degrade.checkpoint))
              l.Folearn.Degrade.attempts;
            report out
              ~solver:
                (Printf.sprintf "%s ERM at rank %d%s"
                   (match l.Folearn.Degrade.solver with
                   | "local" -> "sublinear local"
                   | s -> "fallback " ^ s)
                   l.Folearn.Degrade.q_used
                   (if l.Folearn.Degrade.degraded then " (degraded)" else ""))
              ~err:l.Folearn.Degrade.err ~witness:false
              l.Folearn.Degrade.hypothesis
          in
          match Folearn.Degrade.learn ?budget ~precheck g ~k ~ell ~q lam with
          | Guard.Complete l when l.Folearn.Degrade.degraded ->
              print l;
              exit_degraded
          | outcome -> conclude outcome print))

(* mc, types and game settle all or nothing: a truth value, a
   partition or a trace, never a partial one *)
let run_whole ~out ~err ?budget ~ckpt ~cmd compute print =
  conclude ~out ~err ~ckpt ~cmd
    (Resil.Ctl.with_attached ckpt @@ fun () ->
     Guard.run ?budget ~salvage:(fun () -> None) compute)
    print

let run ~out ~err ?budget ~ckpt ~precheck = function
  | Learn prep -> run_learn ~out ~err ?budget ~ckpt ~precheck prep
  | Mc { g; phi; via_erm = false } ->
      run_whole ~out ~err ?budget ~ckpt ~cmd:"mc"
        (fun () -> Modelcheck.Eval.sentence g phi)
        (fun verdict -> Format.fprintf out "%b@." verdict)
  | Mc { g; phi; via_erm = true } ->
      conclude ~out ~err ~ckpt ~cmd:"mc"
        (Resil.Ctl.with_attached ckpt @@ fun () ->
         Folearn.Reduction.model_check_budgeted ?budget ~precheck
           ~oracle:Folearn.Reduction.exact_oracle g phi)
        (fun (verdict, stats) ->
          Format.fprintf out "%b@." verdict;
          Format.fprintf out
            "(oracle calls: %d, recursion nodes: %d, representative sets: \
             [%s])@."
            stats.Folearn.Reduction.oracle_calls
            stats.Folearn.Reduction.recursion_nodes
            (String.concat "; "
               (List.map string_of_int
                  stats.Folearn.Reduction.representative_sets)))
  | Types { g; q; k; hintikka } ->
      run_whole ~out ~err ?budget ~ckpt ~cmd:"types"
        (fun () ->
          Modelcheck.Types.partition_by_tp (Modelcheck.Types.make_ctx g) ~q
            (Graph.Tuple.all ~n:(Graph.order g) ~k))
        (fun classes ->
          Format.fprintf out
            "%d distinct tp_%d classes of %d-tuples on %d vertices@."
            (List.length classes) q k (Graph.order g);
          List.iteri
            (fun i (ty, members) ->
              Format.fprintf out "class %d (%a): %d tuples, e.g. %a@." i
                Modelcheck.Types.pp ty (List.length members) Graph.Tuple.pp
                (List.hd members);
              if hintikka then
                Format.fprintf out "  %t@." (fun ppf ->
                    Fo.Formula.render ~col:2 (Format.pp_print_string ppf)
                      (Modelcheck.Hintikka.of_type
                         ~colors:(Graph.color_names g) ty)))
            classes)
  | Game { g; r } ->
      run_whole ~out ~err ?budget ~ckpt ~cmd:"game"
        (fun () ->
          Splitter.Game.trace g ~r
            ~connector:(Splitter.Strategy.connector_max_ball ~r)
            ~splitter:Splitter.Strategy.best_heuristic)
        (fun tr ->
          List.iteri
            (fun i (v, w, remaining) ->
              Format.fprintf out
                "round %d: Connector -> %d, Splitter -> %d, arena %d \
                 vertices@."
                (i + 1) v w remaining)
            tr;
          match List.rev tr with
          | (_, _, 0) :: _ ->
              Format.fprintf out "Splitter wins in %d rounds@."
                (List.length tr)
          | _ -> Format.fprintf out "no win within the round cap@.")

let print_sweep_winner ~out prep ~params_tried winner =
  report_sweep out prep.p
    { (Folearn.Sweep.winner (sweep prep) winner) with params_tried }

(* ------------------------------------------------------------------ *)
(* the service's entry points                                          *)
(* ------------------------------------------------------------------ *)

type run = {
  code : int;
  out : string;
  err : string;
  spent : Guard.spent option;
}

let run_op ?budget ?(ckpt = Resil.Ctl.none) ?(precheck = true) ~op ~params ()
    =
  let ob = Buffer.create 512 and eb = Buffer.create 256 in
  let out = Format.formatter_of_buffer ob in
  let err = Format.formatter_of_buffer eb in
  let code =
    try
      match request_of_json ~op params with
      | Ok req -> run ~out ~err ?budget ~ckpt ~precheck req
      | Error msg ->
          Format.fprintf err "%s@." msg;
          2
    with e ->
      Format.fprintf err "folearn serve: %s op failed: %s@." op
        (Printexc.to_string e);
      2
  in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  {
    code;
    out = Buffer.contents ob;
    err = Buffer.contents eb;
    spent = Option.map Guard.Budget.spent budget;
  }

let precheck_rejection ~op ~params ~limits =
  let module Plan = Analysis.Plan in
  match
    catch_usage @@ fun () ->
    match op with
    | "learn" | "submit" -> (
        let p = learn_params params in
        let inp =
          Plan.input ~tmax:p.lp_tmax p.lp_g ~k:p.lp_k ~ell:p.lp_ell ~q:p.lp_q
            (sample_tuples p.lp_g ~k:p.lp_k ~m:p.lp_m ~seed:p.lp_seed)
        in
        match p.lp_solver with
        | `Local ->
            (* the budgeted local path runs the degradation chain, so
               admission must reject only when every stage is doomed —
               same rule as [Folearn.Admission.degrade] *)
            Plan.precheck_chain ~what:"Degrade" (Plan.degrade_stages inp)
              limits
        | (`Brute | `Nd | `Counting) as s ->
            let s = plan_solver s in
            Plan.precheck
              ~what:(String.capitalize_ascii ("erm_" ^ Plan.solver_name s))
              (Plan.analyze inp s) limits)
    | "mc" when p_bool ~default:false "via_erm" params ->
        let g = p_graph ~op params in
        let phi = p_formula ~op ~flag:"--formula" "formula" params in
        Plan.precheck_model_check ~what:"Reduction" ~n:(Graph.order g) phi
          limits
    | _ -> None
  with
  | Ok (Some _) as rej ->
      (* same ledger the in-process admission layer keeps *)
      Obs.Metric.incr (Obs.Metric.counter "plan.precheck_rejections");
      rej
  | r -> r
