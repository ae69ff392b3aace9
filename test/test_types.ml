(* Cross-validation of the canonical type machinery:
   - canonical type equality coincides with EF-game equivalence,
   - Hintikka formulas define their types,
   - Gaifman locality (Fact 5) holds at the configured radius. *)

open Cgraph
module T = Modelcheck.Types
module Ef = Modelcheck.Ef
module H = Modelcheck.Hintikka
module E = Modelcheck.Eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p6 = Gen.path 6
let c6 = Gen.cycle 6

let coloured_path =
  Graph.with_colors (Gen.path 6) [ ("Red", [ 0; 3 ]); ("Blue", [ 5 ]) ]

(* ------------------------------------------------------------------ *)
(* EF games                                                            *)
(* ------------------------------------------------------------------ *)

let test_partial_iso () =
  check "matching pairs" true (Ef.partial_isomorphism p6 [| 0; 1 |] p6 [| 5; 4 |]);
  check "edge mismatch" false
    (Ef.partial_isomorphism p6 [| 0; 1 |] p6 [| 0; 2 |]);
  check "equality pattern" false
    (Ef.partial_isomorphism p6 [| 0; 0 |] p6 [| 0; 1 |]);
  check "colour mismatch" false
    (Ef.partial_isomorphism coloured_path [| 0 |] coloured_path [| 1 |])

let test_ef_path_endpoints () =
  (* one round cannot see degrees (Duplicator matches any single probe),
     two rounds distinguish the endpoint from a middle vertex *)
  check "0-equivalent" true (Ef.equiv ~q:0 p6 [| 0 |] p6 [| 2 |]);
  check "1 move is not enough" true (Ef.equiv ~q:1 p6 [| 0 |] p6 [| 2 |]);
  check "2 moves distinguish endpoint" false (Ef.equiv ~q:2 p6 [| 0 |] p6 [| 2 |]);
  check "symmetric vertices equivalent" true (Ef.equiv ~q:3 p6 [| 0 |] p6 [| 5 |])

let test_ef_path_vs_cycle () =
  (* P6 and C6 agree up to rank 1 on generic vertices but rank 2 splits
     (endpoints exist) *)
  check "rank 1" true (Ef.equiv ~q:1 p6 [| 2 |] c6 [| 0 |]);
  check "rank 2 splits" false (Ef.equiv ~q:2 p6 [| 2 |] c6 [| 0 |]);
  check "distinguishing rank" true
    (Ef.rank_distinguishing ~max_q:3 p6 [| 2 |] c6 [| 0 |] = Some 2)

let test_ef_sentences () =
  (* empty tuples: C5 vs C6 differ at some small rank *)
  let c5 = Gen.cycle 5 in
  check "graphs 1-equivalent" true (Ef.equiv ~q:1 c5 [||] c6 [||]);
  check "eventually split" true
    (Ef.rank_distinguishing ~max_q:3 c5 [||] c6 [||] <> None)

(* ------------------------------------------------------------------ *)
(* Canonical types vs EF                                               *)
(* ------------------------------------------------------------------ *)

let types_match_ef ~q g tuples =
  let ctx = T.make_ctx g in
  List.for_all
    (fun u ->
      List.for_all
        (fun v ->
          T.equal (T.tp ctx ~q u) (T.tp ctx ~q v) = Ef.equiv ~q g u g v)
        tuples)
    tuples

let test_types_vs_ef_1tuples () =
  check "rank 0" true (types_match_ef ~q:0 coloured_path (Graph.Tuple.all ~n:6 ~k:1));
  check "rank 1" true (types_match_ef ~q:1 coloured_path (Graph.Tuple.all ~n:6 ~k:1));
  check "rank 2" true (types_match_ef ~q:2 coloured_path (Graph.Tuple.all ~n:6 ~k:1))

let test_types_vs_ef_2tuples () =
  check "rank 1 pairs" true
    (types_match_ef ~q:1 p6 (Graph.Tuple.all ~n:6 ~k:2))

(* Random graphs for the type oracles: a one-colour random tree, or a
   gnp graph with two colours drawn independently, so that a vertex may
   hold both colours or neither. *)
let random_graph ~seed ~n ~tree =
  if tree then
    Gen.colored ~seed ~colors:[ "Red" ] (Gen.random_tree ~seed:(seed + 3) n)
  else
    Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
      (Gen.gnp ~seed:(seed + 3) ~n ~p:0.4)

(* k = 2 runs over every pair, repeated vertices included, which is
   what exercises the equality masks of the atomic-type coder *)
let types_vs_ef_random =
  QCheck.Test.make ~name:"canonical type equality = EF equivalence" ~count:40
    QCheck.(quad (int_range 0 1000) (int_range 0 2) (int_range 1 2) bool)
    (fun (seed, q, k, tree) ->
      let n = if k = 1 then 7 else 5 in
      types_match_ef ~q (random_graph ~seed ~n ~tree) (Graph.Tuple.all ~n ~k))

(* The integer coder against the direct construction: the signature of
   a tuple's code, and of every one-point extension [extend] produces,
   is exactly [atomic_signature] of that tuple. *)
let coder_vs_atomic_signature =
  QCheck.Test.make ~name:"coder signatures = atomic_signature (random)" ~count:30
    QCheck.(triple (int_range 0 1000) (int_range 0 3) bool)
    (fun (seed, k, tree) ->
      let n = 6 in
      let g = random_graph ~seed ~n ~tree in
      let c = T.Coder.make g in
      let dst = Array.make n 0 in
      List.for_all
        (fun u ->
          let p = T.Coder.of_tuple c u in
          T.Coder.extend c p u dst;
          T.Coder.signature c p = T.atomic_signature g u
          && List.for_all
               (fun w ->
                 T.Coder.signature c dst.(w)
                 = T.atomic_signature g (Graph.Tuple.append u [| w |]))
               (Graph.vertices g))
        (Graph.Tuple.all ~n ~k))

(* Colour-set ids are local to a context while type ids are global: the
   same type must come out of two graphs whose colour vocabularies only
   overlap, exactly when Duplicator wins across them. *)
let types_vs_ef_cross_vocabulary =
  QCheck.Test.make ~name:"type equality = EF equivalence across vocabularies"
    ~count:25
    QCheck.(triple (int_range 0 1000) (int_range 0 2) (int_range 1 2))
    (fun (seed, q, k) ->
      let n = if k = 1 then 6 else 4 in
      let g =
        Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
          (Gen.gnp ~seed:(seed + 1) ~n ~p:0.4)
      and h =
        Gen.colored ~seed:(seed + 7) ~colors:[ "Blue"; "Green" ]
          (Gen.gnp ~seed:(seed + 2) ~n ~p:0.4)
      in
      let gctx = T.make_ctx g and hctx = T.make_ctx h in
      let tuples = Graph.Tuple.all ~n ~k in
      List.for_all
        (fun u ->
          List.for_all
            (fun v ->
              T.equal (T.tp gctx ~q u) (T.tp hctx ~q v) = Ef.equiv ~q g u h v)
            tuples)
        tuples)

let test_types_cross_graph () =
  (* a path endpoint in P6 looks like a path endpoint in P7 at rank 1 *)
  let p7 = Gen.path 7 in
  let t6 = T.tp_graph p6 ~q:1 [| 0 |] in
  let t7 = T.tp_graph p7 ~q:1 [| 0 |] in
  check "cross-graph endpoint types agree at rank 1" true (T.equal t6 t7);
  check "EF agrees" true (Ef.equiv ~q:1 p6 [| 0 |] p7 [| 0 |]);
  (* ... but rank 3 tells P6 from P7 even at the endpoint *)
  check "cross-graph EF splits eventually" true
    (Ef.rank_distinguishing ~max_q:4 p6 [| 0 |] p7 [| 0 |] <> None)

let test_rank_arity () =
  let t = T.tp_graph coloured_path ~q:2 [| 1; 4 |] in
  check_int "rank recorded" 2 (T.rank t);
  check_int "arity recorded" 2 (T.arity t)

let test_partition () =
  let ctx = T.make_ctx p6 in
  let classes = T.partition_by_tp ctx ~q:1 (Graph.Tuple.all ~n:6 ~k:1) in
  (* rank 1 sees only the one-extension patterns {equal, edge, neither},
     which every P6 vertex realises: a single class *)
  check_int "one rank-1 class" 1 (List.length classes);
  let classes2 = T.partition_by_tp ctx ~q:2 (Graph.Tuple.all ~n:6 ~k:1) in
  (* rank 2: endpoints {0,5}, their neighbours {1,4}, middles {2,3} *)
  check_int "three rank-2 classes" 3 (List.length classes2)

let test_count_types () =
  check_int "count matches partition" 1 (T.count_types p6 ~q:1 ~k:1);
  check_int "rank 2 splits the path" 3 (T.count_types p6 ~q:2 ~k:1);
  check "cycle is vertex-transitive" true (T.count_types c6 ~q:2 ~k:1 = 1)

(* ------------------------------------------------------------------ *)
(* Local types                                                         *)
(* ------------------------------------------------------------------ *)

let test_ltp_refines () =
  (* equal local types at generous radius imply equal global types *)
  let ctx = T.make_ctx coloured_path in
  let tuples = Graph.Tuple.all ~n:6 ~k:1 in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          let lu = T.ltp ctx ~q:1 ~r:3 u and lv = T.ltp ctx ~q:1 ~r:3 v in
          let gu = T.tp ctx ~q:1 u and gv = T.tp ctx ~q:1 v in
          if T.equal lu lv && not (T.equal gu gv) then
            Alcotest.failf "locality violated at %d vs %d" u.(0) v.(0))
        tuples)
    tuples

let test_ltp_small_radius_coarser () =
  (* at radius 0 a local type sees only the vertex itself *)
  let ctx = T.make_ctx p6 in
  check "r=0 merges endpoint and middle" true
    (T.equal (T.ltp ctx ~q:0 ~r:0 [| 0 |]) (T.ltp ctx ~q:0 ~r:0 [| 3 |]))

let test_fact5_holds () =
  check "Fact 5 on coloured path, q=1, r=3" true
    (Modelcheck.Locality.fact5_holds coloured_path ~q:1 ~r:3 ~k:1);
  check "Fact 5 pairs" true
    (Modelcheck.Locality.fact5_holds p6 ~q:1 ~r:3 ~k:2)

let fact5_random =
  QCheck.Test.make ~name:"Fact 5 at the Gaifman radius (q=1, random trees)"
    ~count:30
    QCheck.(int_range 0 2000)
    (fun seed ->
      let g =
        Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
          (Gen.random_tree ~seed:(seed + 11) 9)
      in
      Modelcheck.Locality.fact5_holds g ~q:1 ~r:(Fo.Gaifman.radius 1) ~k:1)

let test_minimal_radius () =
  match Modelcheck.Locality.minimal_radius p6 ~q:1 ~k:1 ~max_r:5 with
  | Some r -> check "minimal radius sane" true (r <= 3)
  | None -> Alcotest.fail "expected locality to hold within r=5"

(* ------------------------------------------------------------------ *)
(* Hintikka formulas                                                   *)
(* ------------------------------------------------------------------ *)

let hintikka_defines_type ~q g tuples =
  let ctx = T.make_ctx g in
  let colors = Graph.color_names g in
  List.for_all
    (fun u ->
      let theta = T.tp ctx ~q u in
      let f = H.of_type ~colors theta in
      List.for_all
        (fun v ->
          E.holds_tuple g ~vars:(H.variables (Array.length v)) v f
          = T.equal (T.tp ctx ~q v) theta)
        tuples)
    tuples

let test_hintikka_rank0 () =
  check "rank 0 singles" true
    (hintikka_defines_type ~q:0 coloured_path (Graph.Tuple.all ~n:6 ~k:1));
  check "rank 0 pairs" true
    (hintikka_defines_type ~q:0 coloured_path (Graph.Tuple.all ~n:6 ~k:2))

let test_hintikka_rank1 () =
  check "rank 1 singles" true
    (hintikka_defines_type ~q:1 coloured_path (Graph.Tuple.all ~n:6 ~k:1))

let test_hintikka_rank2 () =
  check "rank 2 singles" true
    (hintikka_defines_type ~q:2 p6 (Graph.Tuple.all ~n:6 ~k:1))

let hintikka_random =
  QCheck.Test.make ~name:"Hintikka formula defines its type (random)" ~count:20
    QCheck.(quad (int_range 0 1000) (int_range 0 2) (int_range 1 2) bool)
    (fun (seed, q, k, tree) ->
      let n = if k = 1 then 5 else 4 in
      hintikka_defines_type ~q (random_graph ~seed ~n ~tree)
        (Graph.Tuple.all ~n ~k))

let test_hintikka_cross_graph () =
  (* the Hintikka formula of a C6 vertex at rank 1 holds of C7 (and even
     P6) vertices: rank 1 only sees the extension patterns
     {equal, edge, neither} *)
  let c7 = Gen.cycle 7 in
  let f = H.of_tuple ~colors:[] c6 ~q:1 [| 0 |] in
  check "transfers to C7" true (E.holds_tuple c7 ~vars:[ "x1" ] [| 0 |] f);
  check "transfers to P6" true (E.holds_tuple p6 ~vars:[ "x1" ] [| 0 |] f);
  (* a triangle vertex has no "neither" extension: rejected already at
     rank 1 *)
  check "rejects K3" false
    (E.holds_tuple (Gen.clique 3) ~vars:[ "x1" ] [| 0 |] f);
  (* at rank 2, C6 and C7 part ways (antipodal pairs behave differently) *)
  let f2 = H.of_tuple ~colors:[] c6 ~q:2 [| 0 |] in
  check "rank 2 rejects C7" false (E.holds_tuple c7 ~vars:[ "x1" ] [| 0 |] f2)

let test_hintikka_quantifier_rank () =
  let f = H.of_tuple ~colors:[] p6 ~q:2 [| 0 |] in
  check_int "rank exactly q" 2 (Fo.Formula.quantifier_rank f)

let test_hintikka_vocabulary_guard () =
  let theta = T.tp_graph coloured_path ~q:0 [| 0 |] in
  check "missing colour rejected" true
    (try
       ignore (H.of_type ~colors:[] theta);
       false
     with Invalid_argument _ -> true)

let test_of_types_disjunction () =
  let ctx = T.make_ctx p6 in
  let t0 = T.tp ctx ~q:1 [| 0 |] and t2 = T.tp ctx ~q:1 [| 2 |] in
  let f = H.of_types ~colors:[] [ t0; t2 ] in
  (* every vertex is endpoint-like or middle-like at rank 1 *)
  check "covers all vertices" true
    (List.for_all
       (fun v -> E.holds_tuple p6 ~vars:[ "x1" ] [| v |] f)
       (Graph.vertices p6))

let test_node_decomposition () =
  (* rank-0 nodes have no children; rank-1 children are rank-0 *)
  let ctx = T.make_ctx p6 in
  let t0 = T.tp ctx ~q:0 [| 2 |] in
  (match T.node t0 with
  | _, None -> ()
  | _ -> Alcotest.fail "rank 0 should have no children");
  let t1 = T.tp ctx ~q:1 [| 2 |] in
  (match T.node t1 with
  | sg, Some kids ->
      check "arity recorded in signature" true (sg.T.sig_arity = 1);
      check "children nonempty" true (kids <> []);
      check "children are rank 0" true (List.for_all (fun k -> T.rank k = 0) kids)
  | _ -> Alcotest.fail "rank 1 should have children");
  (* signature structure of a pair with an edge *)
  let sg = T.atomic_signature p6 [| 1; 2 |] in
  check "edge recorded" true (sg.T.edgs = [ (0, 1) ]);
  check "no equalities" true (sg.T.eqs = []);
  let sg' = T.atomic_signature p6 [| 3; 3 |] in
  check "equality recorded" true (sg'.T.eqs = [ (0, 1) ]);
  check "vertex outside the graph rejected" true
    (try
       ignore (T.tp ctx ~q:1 [| 2; 6 |]);
       false
     with Graph.Invalid_vertex 6 -> true);
  check "arity too wide for the coder rejected" true
    (try
       ignore (T.tp ctx ~q:1 (Array.make 40 0));
       false
     with Invalid_argument _ -> true)

let test_ctx_survives_trip () =
  (* a budget that trips inside a rank-1 node's leaf loop must leave the
     context answering exactly as a fresh one *)
  let g = Graph.with_colors (Gen.cycle 7) [ ("Red", [ 0; 2; 3 ]) ] in
  let ctx = T.make_ctx g in
  (match
     Guard.run
       ~budget:(Guard.Budget.make ~fuel:5 ())
       ~salvage:(fun () -> None)
       (fun () -> T.tp ctx ~q:2 [| 0 |])
   with
  | Guard.Exhausted _ -> ()
  | Guard.Complete _ -> Alcotest.fail "expected the fuel to run out");
  List.iter
    (fun u ->
      check "same type as a fresh context" true
        (T.equal (T.tp ctx ~q:2 u) (T.tp_graph g ~q:2 u)))
    (Graph.Tuple.all ~n:7 ~k:1)

let test_rank_distinguishing_bounds () =
  check "equal tuples never distinguished" true
    (Ef.rank_distinguishing ~max_q:3 p6 [| 2 |] p6 [| 2 |] = None);
  check "distinguishing rank is minimal" true
    (match Ef.rank_distinguishing ~max_q:3 p6 [| 0 |] p6 [| 2 |] with
    | Some q -> Ef.equiv ~q:(q - 1) p6 [| 0 |] p6 [| 2 |]
    | None -> false)

let test_partition_order () =
  (* classes come out in first-occurrence order of their representatives *)
  let ctx = T.make_ctx p6 in
  match T.partition_by_tp ctx ~q:2 (Graph.Tuple.all ~n:6 ~k:1) with
  | (_, first_class) :: _ ->
      check "vertex 0 leads the first class" true
        (List.hd first_class = [| 0 |])
  | [] -> Alcotest.fail "expected classes"

(* Witness text must not depend on the order types were interned in:
   the types of cycle:10+Red computed ascending and then, after a
   reset, descending print the same Hintikka formulas — plain and
   counting, one type and a hypothesis's whole disjunction. *)
let test_hintikka_intern_order () =
  let module C = Modelcheck.Ctypes in
  let module Hy = Folearn.Hypothesis in
  let g = Graph.with_colors (Gen.cycle 10) [ ("Red", [ 0; 3; 4 ]) ] in
  let colors = Graph.color_names g in
  let texts order =
    T.reset_tables ();
    C.reset_tables ();
    let ctx = T.make_ctx g and cctx = C.make_ctx g in
    let tp v = T.tp ctx ~q:2 [| v |] in
    let ctp v = C.ctp cctx ~q:2 ~tmax:2 [| v |] in
    let tys = List.map tp order and ctys = List.map ctp order in
    let text h = Fo.Formula.to_string (Hy.formula h) in
    [
      Fo.Formula.to_string (H.of_type ~colors (tp 0));
      Fo.Formula.to_string (C.hintikka ~colors ~tmax:2 (ctp 0));
      text (Hy.of_types g ~k:1 ~q:2 ~types:tys ~params:[||]);
      text (Hy.of_counting_types g ~k:1 ~q:2 ~tmax:2 ~types:ctys ~params:[||]);
    ]
  in
  let up = List.init 10 Fun.id in
  Alcotest.(check (list string))
    "same witness text" (texts up) (texts (List.rev up))

let suite =
  [
    Alcotest.test_case "node decomposition" `Quick test_node_decomposition;
    Alcotest.test_case "rank distinguishing bounds" `Quick
      test_rank_distinguishing_bounds;
    Alcotest.test_case "partition order" `Quick test_partition_order;
    Alcotest.test_case "partial isomorphism" `Quick test_partial_iso;
    Alcotest.test_case "EF path endpoints" `Quick test_ef_path_endpoints;
    Alcotest.test_case "EF path vs cycle" `Quick test_ef_path_vs_cycle;
    Alcotest.test_case "EF sentences" `Quick test_ef_sentences;
    Alcotest.test_case "types=EF on 1-tuples" `Quick test_types_vs_ef_1tuples;
    Alcotest.test_case "types=EF on 2-tuples" `Quick test_types_vs_ef_2tuples;
    Alcotest.test_case "cross-graph types" `Quick test_types_cross_graph;
    Alcotest.test_case "rank and arity" `Quick test_rank_arity;
    Alcotest.test_case "partition by type" `Quick test_partition;
    Alcotest.test_case "count types" `Quick test_count_types;
    Alcotest.test_case "ltp refines tp" `Quick test_ltp_refines;
    Alcotest.test_case "ltp radius 0" `Quick test_ltp_small_radius_coarser;
    Alcotest.test_case "Fact 5 holds" `Quick test_fact5_holds;
    Alcotest.test_case "minimal radius" `Quick test_minimal_radius;
    Alcotest.test_case "Hintikka rank 0" `Quick test_hintikka_rank0;
    Alcotest.test_case "Hintikka rank 1" `Quick test_hintikka_rank1;
    Alcotest.test_case "Hintikka rank 2" `Quick test_hintikka_rank2;
    Alcotest.test_case "Hintikka cross-graph" `Quick test_hintikka_cross_graph;
    Alcotest.test_case "Hintikka rank exact" `Quick test_hintikka_quantifier_rank;
    Alcotest.test_case "Hintikka vocabulary guard" `Quick
      test_hintikka_vocabulary_guard;
    Alcotest.test_case "type-set disjunction" `Quick test_of_types_disjunction;
    QCheck_alcotest.to_alcotest types_vs_ef_random;
    QCheck_alcotest.to_alcotest fact5_random;
    QCheck_alcotest.to_alcotest hintikka_random;
    Alcotest.test_case "context survives a guard trip" `Quick
      test_ctx_survives_trip;
    QCheck_alcotest.to_alcotest types_vs_ef_cross_vocabulary;
    QCheck_alcotest.to_alcotest coder_vs_atomic_signature;
    Alcotest.test_case "Hintikka text ignores intern order" `Quick
      test_hintikka_intern_order;
  ]
