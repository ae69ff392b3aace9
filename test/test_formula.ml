(* Tests for the FO substrate: syntax, parser, localisation, Gaifman. *)

module F = Fo.Formula

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let phi_example =
  (* exists z. E(x, z) /\ Red(z) *)
  F.exists "z" (F.and_ [ F.edge "x" "z"; F.color "Red" "z" ])

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let test_smart_and () =
  check "empty and is true" true (F.and_ [] = F.tru);
  check "and with false collapses" true (F.and_ [ F.eq "x" "y"; F.fls ] = F.fls);
  check "and flattens" true
    (F.and_ [ F.and_ [ F.eq "x" "y"; F.eq "y" "z" ]; F.eq "x" "z" ]
    = F.And [ F.eq "x" "y"; F.eq "y" "z"; F.eq "x" "z" ]);
  check "singleton unwraps" true (F.and_ [ F.eq "x" "y" ] = F.eq "x" "y")

let test_smart_or () =
  check "empty or is false" true (F.or_ [] = F.fls);
  check "or with true collapses" true (F.or_ [ F.eq "x" "y"; F.tru ] = F.tru);
  check "true units dropped in and" true (F.and_ [ F.tru; F.eq "x" "y" ] = F.eq "x" "y")

let test_smart_not () =
  check "double negation" true (F.not_ (F.not_ (F.eq "x" "y")) = F.eq "x" "y");
  check "not true" true (F.not_ F.tru = F.fls)

let test_smart_quantifiers () =
  check "exists false" true (F.exists "x" F.fls = F.fls);
  check "forall true" true (F.forall "x" F.tru = F.tru);
  check "exists_many" true
    (F.exists_many [ "a"; "b" ] F.(eq "a" "b")
    = F.Exists ("a", F.Exists ("b", F.eq "a" "b")))

let test_implies_iff () =
  check "false implies" true (F.implies F.fls (F.eq "x" "y") = F.tru);
  check "implies false is negation" true
    (F.implies (F.eq "x" "y") F.fls = F.not_ (F.eq "x" "y"));
  check "iff true unit" true (F.iff F.tru (F.eq "x" "y") = F.eq "x" "y")

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let test_quantifier_rank () =
  check_int "atom" 0 (F.quantifier_rank (F.eq "x" "y"));
  check_int "one" 1 (F.quantifier_rank phi_example);
  check_int "nested" 2
    (F.quantifier_rank (F.forall "w" phi_example));
  check_int "parallel takes max" 1
    (F.quantifier_rank (F.and_ [ phi_example; F.exists "u" (F.eq "u" "u") ]))

let test_free_vars () =
  Alcotest.(check (list string)) "free vars" [ "x" ] (F.free_vars phi_example);
  Alcotest.(check (list string))
    "bound removed" []
    (F.free_vars (F.exists "x" phi_example));
  Alcotest.(check (list string))
    "all vars" [ "x"; "z" ] (F.all_vars phi_example)

let test_colors_used () =
  Alcotest.(check (list string)) "colors" [ "Red" ] (F.colors_used phi_example)

let test_size () =
  check "atom size 1" true (F.size (F.eq "x" "y") = 1);
  check "structure counted" true (F.size phi_example >= 4)

(* ------------------------------------------------------------------ *)
(* Substitution and renaming                                           *)
(* ------------------------------------------------------------------ *)

let test_substitute_free () =
  let f = F.substitute [ ("x", "u") ] phi_example in
  Alcotest.(check (list string)) "renamed free var" [ "u" ] (F.free_vars f)

let test_substitute_avoids_capture () =
  (* substituting x := z into exists z. E(x,z) must refresh the binder *)
  let f = F.substitute [ ("x", "z") ] phi_example in
  (* the free z must not be captured: semantics check via evaluation *)
  Alcotest.(check (list string)) "free var is z" [ "z" ] (F.free_vars f);
  match f with
  | F.Exists (b, _) -> check "binder refreshed" true (b <> "z")
  | _ -> Alcotest.fail "expected an existential"

let test_substitute_bound_untouched () =
  let f = F.substitute [ ("z", "w") ] phi_example in
  check "bound occurrence untouched" true (f = phi_example)

let test_map_atoms () =
  let f =
    F.map_atoms
      (function
        | F.Edge (a, b) -> F.color "Q" b |> fun c -> F.and_ [ c; F.eq a a ]
        | a -> F.Atom a)
      phi_example
  in
  check "edge rewritten" true (F.colors_used f = [ "Q"; "Red" ])

(* ------------------------------------------------------------------ *)
(* Normal forms                                                        *)
(* ------------------------------------------------------------------ *)

let test_nnf () =
  let f = F.not_ (F.exists "z" (F.implies (F.edge "x" "z") (F.fls))) in
  let g = F.nnf f in
  let rec no_bad = function
    | F.Not (F.Atom _) | F.Atom _ | F.True | F.False -> true
    | F.Not (F.CountGe (_, _, f)) -> no_bad f (* counting has no dual *)
    | F.Not _ -> false
    | F.Implies _ | F.Iff _ -> false
    | F.And fs | F.Or fs -> List.for_all no_bad fs
    | F.Exists (_, f) | F.Forall (_, f) | F.CountGe (_, _, f) -> no_bad f
  in
  check "nnf shape" true (no_bad g);
  check "rank preserved" true (F.quantifier_rank g = F.quantifier_rank f)

let test_simplify () =
  check "x = x folds" true (F.simplify (F.eq "x" "x") = F.tru);
  check "dedup juncts" true
    (F.simplify (F.And [ F.eq "x" "y"; F.eq "x" "y" ]) = F.eq "x" "y");
  check "vacuous quantifier dropped" true
    (F.simplify (F.Exists ("w", F.eq "x" "y")) = F.eq "x" "y")

let test_fresh_var () =
  check_str "fresh avoids" "x0" (F.fresh_var ~avoid:[ "x" ] "x");
  check_str "fresh keeps free name" "y" (F.fresh_var ~avoid:[ "x" ] "y")

(* ------------------------------------------------------------------ *)
(* Parser round-trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_atoms () =
  check "eq" true (Fo.Parser.parse "x = y" = F.eq "x" "y");
  check "neq" true (Fo.Parser.parse "x != y" = F.not_ (F.eq "x" "y"));
  check "edge" true (Fo.Parser.parse "E(x, y)" = F.edge "x" "y");
  check "color" true (Fo.Parser.parse "Red(x)" = F.color "Red" "x");
  check "true" true (Fo.Parser.parse "true" = F.tru)

let test_parse_precedence () =
  check "and binds tighter than or" true
    (Fo.Parser.parse "a = b \\/ c = d /\\ e = f"
    = F.or_ [ F.eq "a" "b"; F.and_ [ F.eq "c" "d"; F.eq "e" "f" ] ]);
  check "implies right assoc" true
    (Fo.Parser.parse "a = b -> c = d -> e = f"
    = F.implies (F.eq "a" "b") (F.implies (F.eq "c" "d") (F.eq "e" "f")));
  check "negation tight" true
    (Fo.Parser.parse "~ a = b /\\ c = d"
    = F.and_ [ F.not_ (F.eq "a" "b"); F.eq "c" "d" ])

let test_parse_quantifiers () =
  check "multi-binder" true
    (Fo.Parser.parse "exists x y. E(x, y)"
    = F.exists "x" (F.exists "y" (F.edge "x" "y")));
  check "body extends right" true
    (Fo.Parser.parse "forall x. Red(x) \\/ Blue(x)"
    = F.forall "x" (F.or_ [ F.color "Red" "x"; F.color "Blue" "x" ]))

let test_parse_errors () =
  check "unbalanced" true (Fo.Parser.parse_opt "(x = y" = None);
  check "missing dot" true (Fo.Parser.parse_opt "exists x E(x, x)" = None);
  check "binary non-E" true (Fo.Parser.parse_opt "R(x, y)" = None);
  check "unary E" true (Fo.Parser.parse_opt "E(x)" = None);
  check "trailing garbage" true (Fo.Parser.parse_opt "x = y y" = None)

(* random formula generator for round-trip and semantics properties *)
let rec gen_formula vars depth st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let var () = pick vars in
  if depth = 0 || Random.State.int st 3 = 0 then
    match Random.State.int st 4 with
    | 0 -> F.eq (var ()) (var ())
    | 1 -> F.edge (var ()) (var ())
    | 2 -> F.color (pick [ "Red"; "Blue" ]) (var ())
    | _ -> if Random.State.bool st then F.True else F.False
  else begin
    match Random.State.int st 6 with
    | 0 -> F.Not (gen_formula vars (depth - 1) st)
    | 1 ->
        F.And
          [ gen_formula vars (depth - 1) st; gen_formula vars (depth - 1) st ]
    | 2 ->
        F.Or
          [ gen_formula vars (depth - 1) st; gen_formula vars (depth - 1) st ]
    | 3 ->
        F.Implies
          (gen_formula vars (depth - 1) st, gen_formula vars (depth - 1) st)
    | 4 ->
        let v = Printf.sprintf "b%d" (Random.State.int st 3) in
        F.Exists (v, gen_formula (v :: vars) (depth - 1) st)
    | _ ->
        let v = Printf.sprintf "b%d" (Random.State.int st 3) in
        F.Forall (v, gen_formula (v :: vars) (depth - 1) st)
  end

let parser_roundtrip =
  QCheck.Test.make ~name:"pp then parse is semantically faithful" ~count:120
    QCheck.(int_range 0 10000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let f = gen_formula [ "x"; "y" ] 4 st in
      match Fo.Parser.parse_opt (F.to_string f) with
      | None -> false
      | Some g ->
          (* parsing normalises through the smart constructors; compare
             semantically on a fixed small graph *)
          let graph =
            Cgraph.Graph.create ~n:4
              ~edges:[ (0, 1); (1, 2); (2, 3) ]
              ~colors:[ ("Red", [ 0; 2 ]); ("Blue", [ 1 ]) ]
          in
          List.for_all
            (fun vx ->
              List.for_all
                (fun vy ->
                  let env = [ ("x", vx); ("y", vy) ] in
                  Modelcheck.Eval.holds graph env f
                  = Modelcheck.Eval.holds graph env g)
                [ 0; 1; 2; 3 ])
            [ 0; 1; 2; 3 ])

(* Genform builds through the same smart constructors the parser
   normalises with, so on that class the round-trip is exact structural
   identity, not just semantic equivalence. *)
let parser_exact_roundtrip =
  QCheck.Test.make ~name:"parse . pp = id over Genform" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let f = Fo.Genform.formula ~seed () in
      Fo.Parser.parse_opt (F.to_string f) = Some f)

let parser_exact_roundtrip_counting =
  QCheck.Test.make ~name:"parse . pp = id over counting Genform" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Fo.Genform.default with allow_counting = true } in
      let f = Fo.Genform.formula ~config ~seed () in
      Fo.Parser.parse_opt (F.to_string f) = Some f)

let nnf_preserves_semantics =
  QCheck.Test.make ~name:"nnf and simplify preserve semantics" ~count:120
    QCheck.(int_range 0 10000)
    (fun seed ->
      let st = Random.State.make [| seed + 777 |] in
      let f = gen_formula [ "x"; "y" ] 4 st in
      let graph =
        Cgraph.Graph.create ~n:4
          ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
          ~colors:[ ("Red", [ 1; 3 ]); ("Blue", [ 0 ]) ]
      in
      List.for_all
        (fun vx ->
          List.for_all
            (fun vy ->
              let env = [ ("x", vx); ("y", vy) ] in
              let base = Modelcheck.Eval.holds graph env f in
              Modelcheck.Eval.holds graph env (F.nnf f) = base
              && Modelcheck.Eval.holds graph env (F.simplify f) = base)
            [ 0; 2 ])
        [ 1; 3 ])

(* ------------------------------------------------------------------ *)
(* Localisation                                                        *)
(* ------------------------------------------------------------------ *)

let test_dist_le_semantics () =
  let g = Cgraph.Gen.path 8 in
  List.iter
    (fun d ->
      let f = Fo.Localize.dist_le ~d "x" "y" in
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              let expected = Cgraph.Bfs.dist g u v <= d in
              let got =
                Modelcheck.Eval.holds g [ ("x", u); ("y", v) ] f
              in
              if got <> expected then
                Alcotest.failf "dist_le %d wrong at (%d,%d)" d u v)
            [ 0; 3; 7 ])
        [ 0; 2; 5 ])
    [ 0; 1; 2; 3; 5 ]

let test_dist_le_rank () =
  check_int "d=1 rank 0" 0 (F.quantifier_rank (Fo.Localize.dist_le ~d:1 "x" "y"));
  check_int "d=2 rank 1" 1 (F.quantifier_rank (Fo.Localize.dist_le ~d:2 "x" "y"));
  check_int "d=4 rank 2" 2 (F.quantifier_rank (Fo.Localize.dist_le ~d:4 "x" "y"));
  check "d=8 rank 3" true
    (F.quantifier_rank (Fo.Localize.dist_le ~d:8 "x" "y") = 3)

let test_relativize_local () =
  (* "x has a neighbour that is Red" is 1-local; its relativisation to
     r=1 must agree with evaluation in the induced 1-ball *)
  let f = F.exists "z" (F.and_ [ F.edge "x" "z"; F.color "Red" "z" ]) in
  let loc = Fo.Localize.relativize ~r:1 ~around:[ "x" ] f in
  let g =
    Cgraph.Graph.create ~n:6
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]
      ~colors:[ ("Red", [ 2; 5 ]) ]
  in
  List.iter
    (fun v ->
      let emb = Cgraph.Ops.neighborhood g ~r:1 [| v |] in
      let v' = Option.get (emb.Cgraph.Ops.to_sub v) in
      let expected = Modelcheck.Eval.holds emb.Cgraph.Ops.graph [ ("x", v') ] f in
      let got = Modelcheck.Eval.holds g [ ("x", v) ] loc in
      if got <> expected then Alcotest.failf "relativize wrong at %d" v)
    (Cgraph.Graph.vertices g)

let relativize_is_local =
  QCheck.Test.make
    ~name:"relativised formulas depend only on the r-neighbourhood" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 1 2))
    (fun (seed, r) ->
      let st = Random.State.make [| seed; r |] in
      let f = gen_formula [ "x" ] 3 st in
      let loc = Fo.Localize.relativize ~r ~around:[ "x" ] f in
      let g =
        Cgraph.Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
          (Cgraph.Gen.random_tree ~seed:(seed + 1) 12)
      in
      List.for_all
        (fun v ->
          let emb = Cgraph.Ops.neighborhood g ~r [| v |] in
          let v' = Option.get (emb.Cgraph.Ops.to_sub v) in
          Modelcheck.Eval.holds g [ ("x", v) ] loc
          = Modelcheck.Eval.holds emb.Cgraph.Ops.graph [ ("x", v') ] loc)
        [ 0; 5; 11 ])

let test_gaifman_radius () =
  check_int "r(0)" 0 (Fo.Gaifman.radius 0);
  check_int "r(1)" 3 (Fo.Gaifman.radius 1);
  check_int "r(2)" 24 (Fo.Gaifman.radius 2);
  check "overflow guarded" true
    (try
       ignore (Fo.Gaifman.radius 25);
       false
     with Invalid_argument _ -> true)

let test_rank_overhead () =
  check_int "r<=1 free" 0 (Fo.Gaifman.rank_overhead 1);
  check_int "r=2" 1 (Fo.Gaifman.rank_overhead 2);
  check_int "r=3" 2 (Fo.Gaifman.rank_overhead 3);
  check_int "r=8" 3 (Fo.Gaifman.rank_overhead 8)

(* ------------------------------------------------------------------ *)
(* Rendering: byte-identical to the Format printer it replaced          *)
(* ------------------------------------------------------------------ *)

let columns = [ 0; 2; 7; 40; 60 ]

(* the bytes of [F.render ~col] *)
let at col f =
  let b = Buffer.create 256 in
  F.render ~col (Buffer.add_string b) f;
  Buffer.contents b

let renders_as_reference f =
  List.for_all (fun col -> at col f = Reference_pp.at col f) columns

let arb_of gen = QCheck.make ~print:(Reference_pp.at 0) gen

let genform ~allow_counting =
  arb_of (fun st ->
      let config = { Fo.Genform.default with allow_counting } in
      Fo.Genform.formula ~config ~seed:(Random.State.bits st) ())

(* Formulas no smart constructor builds: Implies, Iff, True and False
   anywhere, identifiers of 12 or more characters, thresholds past 9,
   and one path nested [depth] (6 to 8) deep with shallower siblings. *)
let unnormalised =
  arb_of (fun st ->
      let int n = Random.State.int st n in
      let long prefix =
        prefix ^ String.init (12 + int 9) (fun _ -> Char.chr (97 + int 26))
      in
      let vars = [ "x"; "y1"; long "v_"; long "w_" ] in
      let colors = [ "Red"; long "C_" ] in
      let pick l = List.nth l (int (List.length l)) in
      let rec gen depth =
        if depth = 0 then
          match int 5 with
          | 0 -> F.True
          | 1 -> F.False
          | 2 -> F.Atom (F.Eq (pick vars, pick vars))
          | 3 -> F.Atom (F.Edge (pick vars, pick vars))
          | _ -> F.Atom (F.Color (pick colors, pick vars))
        else
          let deep () = gen (depth - 1) and shallow () = gen (int depth) in
          let items () =
            let n = 2 + int 3 in
            let at = int n in
            List.init n (fun i -> if i = at then deep () else shallow ())
          in
          let pair () =
            if Random.State.bool st then (deep (), shallow ())
            else (shallow (), deep ())
          in
          match int 8 with
          | 0 -> F.Not (deep ())
          | 1 -> F.And (items ())
          | 2 -> F.Or (items ())
          | 3 ->
              let a, b = pair () in
              F.Implies (a, b)
          | 4 ->
              let a, b = pair () in
              F.Iff (a, b)
          | 5 -> F.Exists (pick vars, deep ())
          | 6 -> F.Forall (pick vars, deep ())
          | _ -> F.CountGe (1 + int 12, pick vars, deep ())
      in
      gen (6 + int 3))

let render_genform =
  QCheck.Test.make ~name:"render ~col = Format over Genform" ~count:2000
    (genform ~allow_counting:false) renders_as_reference

let render_genform_counting =
  QCheck.Test.make ~name:"render ~col = Format over counting Genform"
    ~count:2000 (genform ~allow_counting:true) renders_as_reference

let render_unnormalised =
  QCheck.Test.make ~name:"render ~col = Format over unnormalised formulas"
    ~count:2000 unnormalised renders_as_reference

(* the compositions the printers use: Hypothesis.pp's vertical box and
   the two-blank prefix of `types --hintikka` *)
let render_in_context =
  QCheck.Test.make ~name:"render ~col:2 = Format inside the witness layouts"
    ~count:500 unnormalised (fun f ->
      let hyp body =
        Format.asprintf "@[<v>phi(x1..x1; y1..y0) =@;<1 2>%t@,w = ()@]@." body
      in
      hyp (fun ppf -> Format.fprintf ppf "@[%a@]" Reference_pp.pp f)
      = hyp (fun ppf -> F.render ~col:2 (Format.pp_print_string ppf) f)
      && Format.asprintf "  %a@." Reference_pp.pp f
         = "  " ^ at 2 f ^ "\n")

(* [A(x) /\ c...c(y)] has flat width w *)
let conj_of_width w =
  F.And
    [
      F.Atom (F.Color ("A", "x"));
      F.Atom (F.Color (String.make (w - 11) 'c', "y"));
    ]

let test_fit_boundary () =
  List.iter
    (fun col ->
      let space = 78 - col in
      List.iter
        (fun (w, broken) ->
          let f = conj_of_width w in
          let got = at col f in
          let what = Printf.sprintf "col %d width %d" col w in
          check_str (what ^ " = Format") (Reference_pp.at col f) got;
          check (what ^ " broken") broken (String.contains got '\n'))
        [ (space - 1, false); (space, true); (space + 1, true) ])
    [ 0; 2; 40 ]

(* In a broken And at indent 0, [(name(x) <-> A(x) \/ B(x))] opens
   its Or box at column |name| + 9; the Or's flat width is 12. *)
let test_box_past_max_indent () =
  let case opens =
    let name = String.make (opens - 9) 'n' in
    let f =
      F.And
        [
          F.Atom (F.Color ("P", "x"));
          F.Iff
            ( F.Atom (F.Color (name, "x")),
              F.Or [ F.Atom (F.Color ("A", "x")); F.Atom (F.Color ("B", "x")) ] );
        ]
    in
    let got = F.to_string f in
    check_str (Printf.sprintf "box at %d = Format" opens) (Reference_pp.at 0 f)
      got;
    (name, got)
  in
  (* at 68 the box opens in place, broken (12 >= 78 - 68), indent 68 *)
  let name, got = case 68 in
  check_str "box at 68"
    ("P(x) /\\\n(" ^ name ^ "(x) <-> A(x) \\/\n" ^ String.make 68 ' '
   ^ "B(x))")
    got;
  (* at 69 it first breaks to the enclosing indent 0; the fit test
     still uses the 9 columns that were left where it opened *)
  let name, got = case 69 in
  check_str "box at 69"
    ("P(x) /\\\n(" ^ name ^ "(x) <-> \nA(x) \\/\nB(x))")
    got

(* no line is ever indented past 68, however deep boxes nest *)
let test_indent_cap () =
  let rec nest d =
    if d = 0 then F.Atom (F.Color ("Leaf", "x"))
    else
      F.Not
        (F.And [ F.Atom (F.Color ("Red", "x")); F.Exists ("y", nest (d - 1)) ])
  in
  let f = nest 30 in
  List.iter
    (fun col ->
      let got = at col f in
      check_str (Printf.sprintf "col %d = Format" col) (Reference_pp.at col f)
        got;
      List.iter
        (fun line ->
          let blanks = String.length line - String.length (String.trim line) in
          check (Printf.sprintf "indent %d <= 68" blanks) true (blanks <= 68))
        (String.split_on_char '\n' got))
    [ 0; 60; 68 ]

(* a witness larger than one chunk reaches the sink in pieces of at
   most 64 KiB, in order *)
let test_render_chunks () =
  let f =
    F.Or
      (List.init 20_000 (fun i ->
           F.And
             [ F.Atom (F.Color ("Red", "x")); F.edge "x" (Printf.sprintf "y%d" i) ]))
  in
  let chunks = ref [] in
  F.render (fun s -> chunks := s :: !chunks) f;
  let chunks = List.rev !chunks in
  check "several chunks" true (List.length chunks > 1);
  check "chunks <= 64 KiB" true
    (List.for_all (fun c -> String.length c <= 65536) chunks);
  check_str "concatenation = Format" (Reference_pp.at 0 f)
    (String.concat "" chunks);
  check "column past 68 rejected" true
    (try
       ignore (at 69 f);
       false
     with Invalid_argument _ -> true)

(* [pp] prints the column-0 layout as opaque text wherever the
   formatter is: an enclosing box may break before it but does not
   reflow it, so its continuation lines keep their column-0 indents *)
let test_pp_column_zero () =
  let short = F.exists "y" (F.and_ [ F.edge "x" "y"; F.color "Red" "y" ]) in
  let long =
    F.Or
      (List.init 6 (fun i ->
           F.And [ F.color "Red" "x"; F.edge "x" (Printf.sprintf "y%d" i) ]))
  in
  let boxed f = Format.asprintf "@[<2>target:@ %a@]" F.pp f in
  check "long formula is broken" true (String.contains (F.to_string long) '\n');
  check_str "short fits after the label" ("target: " ^ F.to_string short)
    (boxed short);
  check_str "long breaks before, column-0 layout inside"
    ("target:\n  " ^ F.to_string long)
    (boxed long)

let suite =
  [
    Alcotest.test_case "smart and" `Quick test_smart_and;
    Alcotest.test_case "smart or" `Quick test_smart_or;
    Alcotest.test_case "smart not" `Quick test_smart_not;
    Alcotest.test_case "smart quantifiers" `Quick test_smart_quantifiers;
    Alcotest.test_case "implies iff" `Quick test_implies_iff;
    Alcotest.test_case "quantifier rank" `Quick test_quantifier_rank;
    Alcotest.test_case "free vars" `Quick test_free_vars;
    Alcotest.test_case "colors used" `Quick test_colors_used;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "substitute free" `Quick test_substitute_free;
    Alcotest.test_case "substitute avoids capture" `Quick
      test_substitute_avoids_capture;
    Alcotest.test_case "substitute bound untouched" `Quick
      test_substitute_bound_untouched;
    Alcotest.test_case "map atoms" `Quick test_map_atoms;
    Alcotest.test_case "nnf" `Quick test_nnf;
    Alcotest.test_case "simplify" `Quick test_simplify;
    Alcotest.test_case "fresh var" `Quick test_fresh_var;
    Alcotest.test_case "parse atoms" `Quick test_parse_atoms;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse quantifiers" `Quick test_parse_quantifiers;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "dist_le semantics" `Quick test_dist_le_semantics;
    Alcotest.test_case "dist_le rank" `Quick test_dist_le_rank;
    Alcotest.test_case "relativize local" `Quick test_relativize_local;
    Alcotest.test_case "gaifman radius" `Quick test_gaifman_radius;
    Alcotest.test_case "rank overhead" `Quick test_rank_overhead;
    QCheck_alcotest.to_alcotest parser_roundtrip;
    QCheck_alcotest.to_alcotest parser_exact_roundtrip;
    QCheck_alcotest.to_alcotest parser_exact_roundtrip_counting;
    QCheck_alcotest.to_alcotest nnf_preserves_semantics;
    QCheck_alcotest.to_alcotest relativize_is_local;
    Alcotest.test_case "render fit boundary" `Quick test_fit_boundary;
    Alcotest.test_case "render box past max indent" `Quick
      test_box_past_max_indent;
    Alcotest.test_case "render indent cap" `Quick test_indent_cap;
    Alcotest.test_case "render chunks" `Quick test_render_chunks;
    Alcotest.test_case "pp column-0 layout in a box" `Quick test_pp_column_zero;
    QCheck_alcotest.to_alcotest render_genform;
    QCheck_alcotest.to_alcotest render_genform_counting;
    QCheck_alcotest.to_alcotest render_unnormalised;
    QCheck_alcotest.to_alcotest render_in_context;
  ]
