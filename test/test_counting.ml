(* Tests for the counting extension (FOC): syntax, evaluation, counting
   types, counting Hintikka formulas, counting ERM. *)

open Cgraph
module F = Fo.Formula
module E = Modelcheck.Eval
module C = Modelcheck.Ctypes
module T = Modelcheck.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_err = Alcotest.(check (float 1e-9))

let star7 = Gen.star 7
let p6 = Gen.path 6

(* ------------------------------------------------------------------ *)
(* Syntax                                                              *)
(* ------------------------------------------------------------------ *)

let test_count_ge_constructor () =
  check "threshold 0 is true" true (F.count_ge 0 "x" (F.edge "x" "y") = F.tru);
  check "false body collapses" true (F.count_ge 2 "x" F.fls = F.fls);
  check "negative rejected" true
    (try
       ignore (F.count_ge (-1) "x" F.tru);
       false
     with Invalid_argument _ -> true);
  check_int "counts as one quantifier" 1
    (F.quantifier_rank (F.count_ge 3 "y" (F.edge "x" "y")));
  Alcotest.(check (list string))
    "binds its variable" [ "x" ]
    (F.free_vars (F.count_ge 3 "y" (F.edge "x" "y")))

let test_parse_atleast () =
  check "parses" true
    (Fo.Parser.parse "atleast 3 y. E(x, y)"
    = F.count_ge 3 "y" (F.edge "x" "y"));
  check "round trip" true
    (Fo.Parser.parse (F.to_string (F.count_ge 2 "y" (F.color "Red" "y")))
    = F.count_ge 2 "y" (F.color "Red" "y"));
  check "threshold required" true
    (Fo.Parser.parse_opt "atleast y. E(x, y)" = None);
  check "non-numeric threshold rejected" true
    (Fo.Parser.parse_opt "atleast zz y. E(x, y)" = None)

let test_substitution_counting () =
  let f = F.count_ge 2 "y" (F.edge "x" "y") in
  (* substituting x := y must refresh the binder *)
  let g = F.substitute [ ("x", "y") ] f in
  Alcotest.(check (list string)) "free var is y" [ "y" ] (F.free_vars g);
  match g with
  | F.CountGe (2, b, _) -> check "binder refreshed" true (b <> "y")
  | _ -> Alcotest.fail "expected a counting quantifier"

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let degree_ge t = F.count_ge t "y" (F.edge "x" "y")

let test_eval_counting () =
  (* star centre has degree 6, leaves degree 1 *)
  check "centre deg >= 6" true (E.holds star7 [ ("x", 0) ] (degree_ge 6));
  check "centre deg not >= 7" false (E.holds star7 [ ("x", 0) ] (degree_ge 7));
  check "leaf deg >= 1" true (E.holds star7 [ ("x", 3) ] (degree_ge 1));
  check "leaf deg not >= 2" false (E.holds star7 [ ("x", 3) ] (degree_ge 2));
  (* threshold 1 coincides with exists *)
  List.iter
    (fun v ->
      check "atleast 1 = exists" true
        (E.holds p6 [ ("x", v) ] (degree_ge 1)
        = E.holds p6 [ ("x", v) ] (F.exists "y" (F.edge "x" "y"))))
    (Graph.vertices p6)

let test_eval_counting_nested () =
  (* "at least 2 neighbours that are themselves of degree >= 2" *)
  let f =
    F.count_ge 2 "y"
      (F.and_ [ F.edge "x" "y"; F.count_ge 2 "z" (F.edge "y" "z") ])
  in
  check "path middle" true (E.holds p6 [ ("x", 2) ] f);
  check "path near-end" false (E.holds p6 [ ("x", 1) ] f)

(* ------------------------------------------------------------------ *)
(* Counting types                                                      *)
(* ------------------------------------------------------------------ *)

let test_ctp_distinguishes_degree () =
  (* plain rank-1 types merge all P6 vertices; counting rank-1 types with
     tmax 2 split endpoints (1 edge-extension) from middles (2) *)
  check_int "plain rank-1: one class" 1 (T.count_types p6 ~q:1 ~k:1);
  check_int "counting rank-1 tmax 2: two classes" 2
    (C.count_types p6 ~q:1 ~tmax:2 ~k:1)

let test_ctp_tmax1_equals_plain () =
  (* with thresholds capped at 1, counting types = plain types *)
  List.iter
    (fun (g : Graph.t) ->
      let ctx = C.make_ctx g and tctx = T.make_ctx g in
      let tuples = Graph.Tuple.all ~n:(Graph.order g) ~k:1 in
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              let c_eq =
                C.equal (C.ctp ctx ~q:1 ~tmax:1 u) (C.ctp ctx ~q:1 ~tmax:1 v)
              in
              let t_eq =
                T.equal (T.tp tctx ~q:1 u) (T.tp tctx ~q:1 v)
              in
              if c_eq <> t_eq then
                Alcotest.failf "tmax=1 mismatch at %d vs %d" u.(0) v.(0))
            tuples)
        tuples)
    [ p6; star7; Gen.cycle 5 ]

let test_ctp_refines_with_tmax () =
  (* larger caps can only refine the partition *)
  let g = Gen.caterpillar ~seed:3 ~spine:6 ~legs:3 in
  let classes tmax = C.count_types g ~q:1 ~tmax ~k:1 in
  check "tmax 2 >= tmax 1" true (classes 2 >= classes 1);
  check "tmax 4 >= tmax 2" true (classes 4 >= classes 2)

let test_ctp_rank_arity () =
  let t = C.ctp (C.make_ctx p6) ~q:2 ~tmax:2 [| 0; 3 |] in
  check_int "rank" 2 (C.rank t);
  check_int "arity" 2 (C.arity t)

let test_cltp_local () =
  let ctx = C.make_ctx p6 in
  (* at radius 0 everything unicoloured merges *)
  check "radius 0 merges" true
    (C.equal
       (C.cltp ctx ~q:1 ~tmax:2 ~r:0 [| 0 |])
       (C.cltp ctx ~q:1 ~tmax:2 ~r:0 [| 3 |]));
  (* at radius 1, endpoint vs middle split by neighbour count *)
  check "radius 1 splits" false
    (C.equal
       (C.cltp ctx ~q:1 ~tmax:2 ~r:1 [| 0 |])
       (C.cltp ctx ~q:1 ~tmax:2 ~r:1 [| 3 |]))

(* ------------------------------------------------------------------ *)
(* Counting Hintikka                                                   *)
(* ------------------------------------------------------------------ *)

let chintikka_defines ?(k = 1) ~q ~tmax g =
  let ctx = C.make_ctx g in
  let colors = Graph.color_names g in
  let tuples = Graph.Tuple.all ~n:(Graph.order g) ~k in
  let vars = Modelcheck.Hintikka.variables k in
  List.for_all
    (fun u ->
      let theta = C.ctp ctx ~q ~tmax u in
      let f = C.hintikka ~colors ~tmax theta in
      List.for_all
        (fun v ->
          E.holds_tuple g ~vars v f = C.equal (C.ctp ctx ~q ~tmax v) theta)
        tuples)
    tuples

let test_chintikka () =
  check "P6 q=1 tmax=2" true (chintikka_defines ~q:1 ~tmax:2 p6);
  check "star q=1 tmax=3" true (chintikka_defines ~q:1 ~tmax:3 star7);
  check "coloured q=1 tmax=2" true
    (chintikka_defines ~q:1 ~tmax:2
       (Graph.with_colors p6 [ ("Red", [ 0; 2 ]) ]))

let test_chintikka_cross_graph () =
  (* degree profile transfers: C6 vertex formula holds in C9 (same
     counting rank-1 type: exactly 2 edge-extensions) but not at a path
     endpoint *)
  let f =
    C.hintikka ~colors:[] ~tmax:2 (C.ctp (C.make_ctx (Gen.cycle 6)) ~q:1 ~tmax:2 [| 0 |])
  in
  check "holds in C9" true (E.holds_tuple (Gen.cycle 9) ~vars:[ "x1" ] [| 0 |] f);
  check "fails at P6 endpoint" false (E.holds_tuple p6 ~vars:[ "x1" ] [| 0 |] f)

(* a counting witness shows in --stats, /metrics and the flight
   recorder like a plain one: one formulas_built per build, however
   many child types it shares *)
let test_chintikka_counted () =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let built () = Obs.Metric.value Modelcheck.Hintikka.formulas_built in
  let before = built () in
  let theta = C.ctp (C.make_ctx p6) ~q:2 ~tmax:2 [| 0 |] in
  ignore (C.hintikka ~colors:[] ~tmax:2 theta);
  check_int "one per counting build" 1 (built () - before);
  ignore (Modelcheck.Hintikka.of_tuple ~colors:[] p6 ~q:2 [| 0 |]);
  check_int "one per plain build" 2 (built () - before)

(* ------------------------------------------------------------------ *)
(* Counting ERM                                                        *)
(* ------------------------------------------------------------------ *)

module Ec = Folearn.Erm_counting
module Brute = Folearn.Erm_brute
module Sam = Folearn.Sample
module Hyp = Folearn.Hypothesis

let test_counting_erm_degree_target () =
  (* target "degree >= 3": inexpressible at plain rank 1, exact for
     counting rank 1 with tmax 3 *)
  let g = Gen.caterpillar ~seed:9 ~spine:8 ~legs:3 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.degree g v.(0) >= 3)
      (Sam.all_tuples g ~k:1)
  in
  let plain = Brute.solve g ~k:1 ~ell:0 ~q:1 lam in
  let counting = Ec.solve g ~k:1 ~ell:0 ~q:1 ~tmax:3 lam in
  check "plain rank 1 must err" true (plain.Brute.err > 0.0);
  check_err "counting rank 1 is exact" 0.0 counting.Ec.err

let test_counting_erm_witness_formula () =
  let g = star7 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.degree g v.(0) >= 2)
      (Sam.all_tuples g ~k:1)
  in
  let r = Ec.solve g ~k:1 ~ell:0 ~q:1 ~tmax:2 lam in
  check_err "exact" 0.0 r.Ec.err;
  let f = Hyp.formula r.Ec.hypothesis in
  List.iter
    (fun v ->
      check "witness formula agrees" true
        (E.holds_tuple g ~vars:[ "x1" ] v f = Hyp.predict r.Ec.hypothesis v))
    (Sam.all_tuples g ~k:1)

let test_counting_erm_with_params () =
  (* "at least 2 common neighbours with the hidden w" on a dense-ish
     graph; needs a parameter and counting *)
  let g = Gen.gnp ~seed:17 ~n:12 ~p:0.5 in
  let w = 4 in
  let common u =
    Array.fold_left
      (fun acc y -> if Graph.mem_edge g y w then acc + 1 else acc)
      0 (Graph.neighbors g u)
  in
  let lam =
    Sam.label_with g ~target:(fun v -> common v.(0) >= 2)
      (Sam.all_tuples g ~k:1)
  in
  let r = Ec.solve g ~k:1 ~ell:1 ~q:1 ~tmax:2 lam in
  check_err "exact with one parameter" 0.0 r.Ec.err

let test_counting_never_worse () =
  (* the counting class contains the plain class at the same rank *)
  List.iter
    (fun seed ->
      let g =
        Gen.colored ~seed ~colors:[ "Red" ] (Gen.random_tree ~seed 10)
      in
      let lam =
        Sam.flip_noise ~seed ~p:0.2
          (Sam.label_with g
             ~target:(fun v -> Graph.has_color g "Red" v.(0))
             (Sam.all_tuples g ~k:1))
      in
      let plain = Brute.solve g ~k:1 ~ell:0 ~q:1 lam in
      let counting = Ec.solve g ~k:1 ~ell:0 ~q:1 ~tmax:2 lam in
      if counting.Ec.err > plain.Brute.err +. 1e-9 then
        Alcotest.failf "counting worse than plain on seed %d" seed)
    [ 1; 2; 3; 4 ]

let test_counting_guards () =
  check "tmax 0 rejected" true
    (try
       ignore (Ec.solve p6 ~k:1 ~ell:0 ~q:1 ~tmax:0 []);
       false
     with Invalid_argument _ -> true)

let counting_nnf_semantics =
  QCheck.Test.make ~name:"nnf preserves counting semantics" ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xcc |] in
      let t = 1 + Random.State.int st 3 in
      let base = Test_formula.gen_formula [ "x"; "y" ] 2 st in
      let f = F.not_ (F.count_ge t "y" base) in
      let g =
        Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
          (Gen.gnp ~seed:(seed + 2) ~n:6 ~p:0.4)
      in
      List.for_all
        (fun v ->
          E.holds g [ ("x", v) ] f = E.holds g [ ("x", v) ] (F.nnf f))
        [ 0; 2; 5 ])

(* gnp graphs with two colours drawn independently: a vertex may hold
   both colours or neither *)
let two_colour_gnp ~seed ~n =
  Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
    (Gen.gnp ~seed:(seed + 4) ~n ~p:0.4)

(* counting types share the plain types' atomic-type coder; at tmax = 1
   they must partition tuples exactly as plain types do *)
let ctp_tmax1_random =
  QCheck.Test.make ~name:"ctp at tmax=1 = plain types (random)" ~count:30
    QCheck.(triple (int_range 0 1000) (int_range 0 2) (int_range 1 2))
    (fun (seed, q, k) ->
      let n = if k = 1 then 7 else 5 in
      let g = two_colour_gnp ~seed ~n in
      let ctx = C.make_ctx g and tctx = T.make_ctx g in
      let tuples = Graph.Tuple.all ~n ~k in
      List.for_all
        (fun u ->
          List.for_all
            (fun v ->
              C.equal (C.ctp ctx ~q ~tmax:1 u) (C.ctp ctx ~q ~tmax:1 v)
              = T.equal (T.tp tctx ~q u) (T.tp tctx ~q v))
            tuples)
        tuples)

let chintikka_random =
  QCheck.Test.make ~name:"counting Hintikka defines its type (random, q<=2)"
    ~count:12
    QCheck.(triple (int_range 0 1000) (int_range 1 2) (int_range 1 3))
    (fun (seed, q, tmax) ->
      let k = if q = 2 then 1 else 2 in
      chintikka_defines ~k ~q ~tmax (two_colour_gnp ~seed ~n:5))

let suite =
  [
    Alcotest.test_case "count_ge constructor" `Quick test_count_ge_constructor;
    Alcotest.test_case "parse atleast" `Quick test_parse_atleast;
    Alcotest.test_case "substitution" `Quick test_substitution_counting;
    Alcotest.test_case "eval counting" `Quick test_eval_counting;
    Alcotest.test_case "eval nested counting" `Quick test_eval_counting_nested;
    Alcotest.test_case "ctp distinguishes degree" `Quick
      test_ctp_distinguishes_degree;
    Alcotest.test_case "ctp tmax=1 = plain types" `Quick test_ctp_tmax1_equals_plain;
    Alcotest.test_case "ctp refines with tmax" `Quick test_ctp_refines_with_tmax;
    Alcotest.test_case "ctp rank arity" `Quick test_ctp_rank_arity;
    Alcotest.test_case "cltp local" `Quick test_cltp_local;
    Alcotest.test_case "counting Hintikka" `Quick test_chintikka;
    Alcotest.test_case "counting Hintikka cross-graph" `Quick
      test_chintikka_cross_graph;
    Alcotest.test_case "counting ERM degree target" `Quick
      test_counting_erm_degree_target;
    Alcotest.test_case "counting ERM witness" `Quick
      test_counting_erm_witness_formula;
    Alcotest.test_case "counting ERM with params" `Quick
      test_counting_erm_with_params;
    Alcotest.test_case "counting never worse" `Quick test_counting_never_worse;
    Alcotest.test_case "counting guards" `Quick test_counting_guards;
    QCheck_alcotest.to_alcotest counting_nnf_semantics;
    QCheck_alcotest.to_alcotest ctp_tmax1_random;
    QCheck_alcotest.to_alcotest chintikka_random;
    Alcotest.test_case "counting Hintikka counted" `Quick
      test_chintikka_counted;
  ]
