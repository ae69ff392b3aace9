(* The CLI's solo op bodies, retargeted at buffers.  Print statements
   are kept textually in lockstep with bin/folearn_cli.ml — the
   serve-chaos harness compares a served learn's stdout byte-for-byte
   against the one-shot CLI's, at jobs 1 and 4. *)

open Cgraph
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* graph / colour spec parsing (moved here from the CLI)               *)
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

(* ------------------------------------------------------------------ *)
(* parameter objects                                                   *)
(* ------------------------------------------------------------------ *)

(* a usage error: the already-formatted stderr line(s), exit code 2 *)
exception Usage of string

let usage fmt = Format.kasprintf (fun m -> raise (Usage m)) fmt

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

let parse_formula ~cmd ~flag s =
  match Fo.Parser.parse_result s with
  | Ok f -> f
  | Error e -> usage "folearn %s: %s: %a" cmd flag Fo.Parser.pp_error e

let run_id_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* -- learn --------------------------------------------------------- *)

type learn_p = {
  lp_g : Graph.t;
  lp_target : Fo.Formula.t;
  lp_k : int;
  lp_ell : int;
  lp_q : int;
  lp_solver : [ `Brute | `Nd | `Counting | `Local ];
  lp_tmax : int;
  lp_noise : float;
  lp_m : int;
  lp_seed : int;
}

let learn_params j =
  let target = p_req_str ~op:"learn" "target" j in
  let solver =
    match Option.value ~default:"brute" (p_str "solver" j) with
    | "brute" -> `Brute
    | "nd" -> `Nd
    | "counting" -> `Counting
    | "local" -> `Local
    | s -> usage "folearn learn: unknown solver %S" s
  in
  {
    lp_g = p_graph ~op:"learn" j;
    lp_target = parse_formula ~cmd:"learn" ~flag:"--target" target;
    lp_k = p_int ~default:1 "k" j;
    lp_ell = p_int ~default:0 "ell" j;
    lp_q = p_int ~default:1 "q" j;
    lp_solver = solver;
    lp_tmax = p_int ~default:2 "tmax" j;
    lp_noise = p_float ~default:0.0 "noise" j;
    lp_m = p_int ~default:0 "m" j;
    lp_seed = p_int ~default:1 "seed" j;
  }

let solver_name = function
  | `Brute -> "brute"
  | `Nd -> "nd"
  | `Counting -> "counting"
  | `Local -> "local"

let learn_run_id p =
  run_id_of
    [
      "learn"; Io.to_string p.lp_g;
      Fo.Formula.to_string p.lp_target;
      string_of_int p.lp_k; string_of_int p.lp_ell; string_of_int p.lp_q;
      solver_name p.lp_solver;
      string_of_int p.lp_tmax; string_of_float p.lp_noise;
      string_of_int p.lp_m; string_of_int p.lp_seed;
    ]

(* parse/validate the target, fix the run identity, label the training
   sequence — the CLI's [learn_prep], verbatim semantics *)
let learn_prep p =
  let module Sam = Folearn.Sample in
  let xvars = Folearn.Hypothesis.xvars p.lp_k in
  (match
     Analysis.Diagnostic.errors
       (Analysis.Fo_check.check
          ~vocab:(Analysis.Vocab.of_graph p.lp_g)
          ~allowed_free:xvars p.lp_target)
   with
  | [] -> ()
  | errs ->
      usage
        "folearn learn: the target must be a query over x1..x%d in the \
         graph's vocabulary:@.%s"
        p.lp_k
        (Analysis.Diagnostic.render_list errs));
  let tuples =
    if p.lp_m = 0 then Sam.all_tuples p.lp_g ~k:p.lp_k
    else Sam.random_tuples ~seed:p.lp_seed p.lp_g ~k:p.lp_k ~m:p.lp_m
  in
  let lam =
    Sam.label_with_query p.lp_g ~formula:p.lp_target ~xvars tuples
    |> fun l ->
    if p.lp_noise > 0.0 then Sam.flip_noise ~seed:p.lp_seed ~p:p.lp_noise l
    else l
  in
  (learn_run_id p, tuples, lam)

let learn_identity j =
  match
    let p = learn_params j in
    (learn_run_id p, solver_name p.lp_solver)
  with
  | v -> Ok v
  | exception Usage m -> Error m

(* ------------------------------------------------------------------ *)
(* execution                                                           *)
(* ------------------------------------------------------------------ *)

type run = {
  code : int;
  out : string;
  err : string;
  spent : Guard.spent option;
}

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

let exhausted_exit reason ~salvaged =
  if reason = Guard.Interrupted || salvaged then exit_degraded
  else exit_exhausted

let run_learn ~out ~err ?budget ~ckpt ~precheck params =
  let p = learn_params params in
  let g = p.lp_g and k = p.lp_k and ell = p.lp_ell and q = p.lp_q in
  let tmax = p.lp_tmax in
  let _run_id, _tuples, lam = learn_prep p in
  let module Sam = Folearn.Sample in
  Format.fprintf out "training sequence: %d examples (%d positive)@."
    (Sam.size lam)
    (List.length (Sam.positives lam));
  let conclude outcome print =
    match outcome with
    | Guard.Complete r ->
        Resil.Ctl.flush ~complete:true ckpt;
        print r;
        0
    | Guard.Exhausted { best_so_far = Some r; reason; checkpoint; spent } ->
        Resil.Ctl.flush ckpt;
        report_exhausted ~err ~cmd:"learn" ~reason ~checkpoint ~spent;
        Format.fprintf out
          "best-so-far hypothesis (no optimality certificate):@.";
        print r;
        exhausted_exit reason ~salvaged:true
    | Guard.Exhausted { best_so_far = None; reason; checkpoint; spent } ->
        Resil.Ctl.flush ckpt;
        report_exhausted ~err ~cmd:"learn" ~reason ~checkpoint ~spent;
        Format.fprintf err "folearn learn: no hypothesis salvaged@.";
        exhausted_exit reason ~salvaged:false
  in
  match p.lp_solver with
  | `Brute ->
      conclude
        (Folearn.Erm_brute.solve_budgeted ?budget ~precheck ~ckpt g ~k ~ell ~q
           lam)
        (fun (r : Folearn.Erm_brute.result) ->
          Format.fprintf out
            "solver: Prop 11 exact ERM (tried %d parameter tuples)@."
            r.Folearn.Erm_brute.params_tried;
          Format.fprintf out "training error: %.4f@." r.Folearn.Erm_brute.err;
          Format.fprintf out "%a@." Folearn.Hypothesis.pp
            r.Folearn.Erm_brute.hypothesis)
  | `Nd ->
      let cls = Splitter.Nowhere_dense.of_graph "cli" g in
      let cfg =
        Folearn.Erm_nd.default_config ~radius:1 ~k ~ell_star:(max 1 ell)
          ~q_star:q cls
      in
      conclude
        (Folearn.Erm_nd.solve_budgeted ?budget ~precheck ~ckpt cfg g lam)
        (fun (rep : Folearn.Erm_nd.report) ->
          Format.fprintf out
            "solver: Theorem 13 (rounds %d, branches %d, ell used %d, rank \
             %d)@."
            (List.length rep.Folearn.Erm_nd.rounds)
            rep.Folearn.Erm_nd.branches_explored rep.Folearn.Erm_nd.ell_used
            rep.Folearn.Erm_nd.q_used;
          Format.fprintf out "training error: %.4f@." rep.Folearn.Erm_nd.err;
          Format.fprintf out "parameters: %a@." Graph.Tuple.pp
            (Folearn.Hypothesis.params rep.Folearn.Erm_nd.hypothesis))
  | `Counting ->
      conclude
        (Folearn.Erm_counting.solve_budgeted ?budget ~precheck ~ckpt g ~k ~ell
           ~q ~tmax lam)
        (fun (r : Folearn.Erm_counting.result) ->
          Format.fprintf out
            "solver: exact counting ERM (FOC, thresholds <= %d; tried %d \
             parameter tuples)@."
            tmax r.Folearn.Erm_counting.params_tried;
          Format.fprintf out "training error: %.4f@."
            r.Folearn.Erm_counting.err;
          Format.fprintf out "%a@." Folearn.Hypothesis.pp
            r.Folearn.Erm_counting.hypothesis)
  | `Local -> (
      match budget with
      | None ->
          let r = Folearn.Erm_local.solve g ~k ~ell ~q lam in
          Format.fprintf out
            "solver: sublinear local learner (pool %d, touched %d of %d \
             vertices)@."
            r.Folearn.Erm_local.pool_size r.Folearn.Erm_local.vertices_touched
            (Graph.order g);
          Format.fprintf out "training error: %.4f@." r.Folearn.Erm_local.err;
          Format.fprintf out "parameters: %a@." Graph.Tuple.pp
            (Folearn.Hypothesis.params r.Folearn.Erm_local.hypothesis);
          0
      | Some _ when Resil.Ctl.active ckpt ->
          (* a checkpointed (job) local run must resume bit-identically,
             so it bypasses the degradation chain — same rule as the
             CLI's --checkpoint path *)
          conclude
            (Folearn.Erm_local.solve_budgeted ?budget ~precheck ~ckpt g ~k
               ~ell ~q lam)
            (fun (r : Folearn.Erm_local.result) ->
              Format.fprintf out
                "solver: sublinear local learner (pool %d, touched %d of %d \
                 vertices)@."
                r.Folearn.Erm_local.pool_size
                r.Folearn.Erm_local.vertices_touched (Graph.order g);
              Format.fprintf out "training error: %.4f@."
                r.Folearn.Erm_local.err;
              Format.fprintf out "parameters: %a@." Graph.Tuple.pp
                (Folearn.Hypothesis.params r.Folearn.Erm_local.hypothesis))
      | Some _ -> (
          let print (l : Folearn.Degrade.learned) =
            List.iter
              (fun (a : Folearn.Degrade.attempt) ->
                Format.fprintf err
                  "folearn learn: stage %s at rank %d exhausted (%s at %s)@."
                  a.Folearn.Degrade.solver a.Folearn.Degrade.q
                  (Guard.reason_to_string a.Folearn.Degrade.reason)
                  (Guard.checkpoint_to_string a.Folearn.Degrade.checkpoint))
              l.Folearn.Degrade.attempts;
            Format.fprintf out "solver: %s ERM at rank %d%s@."
              (match l.Folearn.Degrade.solver with
              | "local" -> "sublinear local"
              | s -> "fallback " ^ s)
              l.Folearn.Degrade.q_used
              (if l.Folearn.Degrade.degraded then " (degraded)" else "");
            Format.fprintf out "training error: %.4f@." l.Folearn.Degrade.err;
            Format.fprintf out "parameters: %a@." Graph.Tuple.pp
              (Folearn.Hypothesis.params l.Folearn.Degrade.hypothesis)
          in
          match Folearn.Degrade.learn ?budget ~precheck g ~k ~ell ~q lam with
          | Guard.Complete l ->
              print l;
              if l.Folearn.Degrade.degraded then exit_degraded else 0
          | Guard.Exhausted { best_so_far = Some l; reason; checkpoint; spent }
            ->
              report_exhausted ~err ~cmd:"learn" ~reason ~checkpoint ~spent;
              Format.fprintf out
                "best-so-far hypothesis (no optimality certificate):@.";
              print l;
              exhausted_exit reason ~salvaged:true
          | Guard.Exhausted { best_so_far = None; reason; checkpoint; spent }
            ->
              report_exhausted ~err ~cmd:"learn" ~reason ~checkpoint ~spent;
              Format.fprintf err "folearn learn: no hypothesis salvaged@.";
              exhausted_exit reason ~salvaged:false))

(* -- mc ------------------------------------------------------------ *)

let run_mc ~out ~err ?budget ~ckpt ~precheck params =
  let g = p_graph ~op:"mc" params in
  let phi =
    parse_formula ~cmd:"mc" ~flag:"--formula"
      (p_req_str ~op:"mc" "formula" params)
  in
  let via_erm = p_bool ~default:false "via_erm" params in
  (match Fo.Formula.free_vars phi with
  | [] -> ()
  | fv ->
      usage "folearn mc: --formula must be a sentence; free variable%s: %s"
        (if List.length fv > 1 then "s" else "")
        (String.concat ", " fv));
  let outcome =
    Resil.Ctl.with_attached ckpt @@ fun () ->
    if via_erm then
      Guard.outcome_map
        (fun (verdict, stats) ->
          fun () ->
           Format.fprintf out "%b@." verdict;
           Format.fprintf out
             "(oracle calls: %d, recursion nodes: %d, representative sets: \
              [%s])@."
             stats.Folearn.Reduction.oracle_calls
             stats.Folearn.Reduction.recursion_nodes
             (String.concat "; "
                (List.map string_of_int
                   stats.Folearn.Reduction.representative_sets)))
        (Folearn.Reduction.model_check_budgeted ?budget ~precheck
           ~oracle:Folearn.Reduction.exact_oracle g phi)
    else
      Guard.run ?budget
        ~salvage:(fun () -> None)
        (fun () ->
          let verdict = Modelcheck.Eval.sentence g phi in
          fun () -> Format.fprintf out "%b@." verdict)
  in
  match outcome with
  | Guard.Complete print ->
      Resil.Ctl.flush ~complete:true ckpt;
      print ();
      0
  | Guard.Exhausted { reason; checkpoint; spent; _ } ->
      Resil.Ctl.flush ckpt;
      report_exhausted ~err ~cmd:"mc" ~reason ~checkpoint ~spent;
      exhausted_exit reason ~salvaged:false

(* -- types --------------------------------------------------------- *)

let run_types ~out ~err ?budget ~ckpt params =
  let g = p_graph ~op:"types" params in
  let q = p_int ~default:1 "q" params in
  let k = p_int ~default:1 "k" params in
  let hintikka = p_bool ~default:false "hintikka" params in
  let outcome =
    Resil.Ctl.with_attached ckpt @@ fun () ->
    Guard.run ?budget
      ~salvage:(fun () -> None)
      (fun () ->
        let ctx = Modelcheck.Types.make_ctx g in
        Modelcheck.Types.partition_by_tp ctx ~q
          (Graph.Tuple.all ~n:(Graph.order g) ~k))
  in
  match outcome with
  | Guard.Complete classes ->
      Resil.Ctl.flush ~complete:true ckpt;
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
        classes;
      0
  | Guard.Exhausted { reason; checkpoint; spent; _ } ->
      Resil.Ctl.flush ckpt;
      report_exhausted ~err ~cmd:"types" ~reason ~checkpoint ~spent;
      exhausted_exit reason ~salvaged:false

(* -- game ---------------------------------------------------------- *)

let run_game ~out ~err ?budget ~ckpt params =
  let g = p_graph ~op:"game" params in
  let r = p_int ~default:2 "r" params in
  let outcome =
    Resil.Ctl.with_attached ckpt @@ fun () ->
    Guard.run ?budget
      ~salvage:(fun () -> None)
      (fun () ->
        Splitter.Game.trace g ~r
          ~connector:(Splitter.Strategy.connector_max_ball ~r)
          ~splitter:Splitter.Strategy.best_heuristic)
  in
  match outcome with
  | Guard.Complete tr ->
      Resil.Ctl.flush ~complete:true ckpt;
      List.iteri
        (fun i (v, w, remaining) ->
          Format.fprintf out
            "round %d: Connector -> %d, Splitter -> %d, arena %d vertices@."
            (i + 1) v w remaining)
        tr;
      (match List.rev tr with
      | (_, _, 0) :: _ ->
          Format.fprintf out "Splitter wins in %d rounds@." (List.length tr)
      | _ -> Format.fprintf out "no win within the round cap@.");
      0
  | Guard.Exhausted { reason; checkpoint; spent; _ } ->
      Resil.Ctl.flush ckpt;
      report_exhausted ~err ~cmd:"game" ~reason ~checkpoint ~spent;
      exhausted_exit reason ~salvaged:false

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run_op ?budget ?(ckpt = Resil.Ctl.none) ?(precheck = true) ~op ~params ()
    =
  let ob = Buffer.create 512 and eb = Buffer.create 256 in
  let out = Format.formatter_of_buffer ob in
  let err = Format.formatter_of_buffer eb in
  let code =
    try
      match op with
      | "learn" -> run_learn ~out ~err ?budget ~ckpt ~precheck params
      | "mc" -> run_mc ~out ~err ?budget ~ckpt ~precheck params
      | "types" -> run_types ~out ~err ?budget ~ckpt params
      | "game" -> run_game ~out ~err ?budget ~ckpt params
      | _ -> usage "folearn serve: unknown op %S" op
    with
    | Usage msg ->
        Format.fprintf err "%s@." msg;
        2
    | e ->
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
    match op with
    | "learn" | "submit" ->
        let p = learn_params params in
        let module Sam = Folearn.Sample in
        let tuples =
          if p.lp_m = 0 then Sam.all_tuples p.lp_g ~k:p.lp_k
          else Sam.random_tuples ~seed:p.lp_seed p.lp_g ~k:p.lp_k ~m:p.lp_m
        in
        let inp =
          Plan.input ~tmax:p.lp_tmax p.lp_g ~k:p.lp_k ~ell:p.lp_ell ~q:p.lp_q
            tuples
        in
        (match p.lp_solver with
        | `Local ->
            (* the budgeted local path runs the degradation chain, so
               admission must reject only when every stage is doomed —
               same rule as [Folearn.Admission.degrade] *)
            Plan.precheck_chain ~what:"Degrade" (Plan.degrade_stages inp)
              limits
        | (`Brute | `Nd | `Counting) as s ->
            let what, ps =
              match s with
              | `Brute -> ("Erm_brute", Plan.Brute)
              | `Nd -> ("Erm_nd", Plan.Nd)
              | `Counting -> ("Erm_counting", Plan.Counting)
            in
            Plan.precheck ~what (Plan.analyze inp ps) limits)
    | "mc" ->
        if p_bool ~default:false "via_erm" params then
          let g = p_graph ~op:"mc" params in
          let phi =
            parse_formula ~cmd:"mc" ~flag:"--formula"
              (p_req_str ~op:"mc" "formula" params)
          in
          Plan.precheck_model_check ~what:"Reduction" ~n:(Graph.order g) phi
            limits
        else None
    | _ -> None
  with
  | Some _ as rej ->
      (* same ledger the in-process admission layer keeps *)
      Obs.Metric.incr (Obs.Metric.counter "plan.precheck_rejections");
      Ok rej
  | None -> Ok None
  | exception Usage m -> Error m
