open Cgraph
module Types = Modelcheck.Types

type t = {
  graph : Graph.t;
  k : int;
  ell : int;
  qrank : int;
  params : Graph.Tuple.t;
  predictor : Graph.Tuple.t -> bool;
  formula : Fo.Formula.t Lazy.t;
  signature : string Lazy.t;
}

let xvars k = List.init k (fun i -> Printf.sprintf "x%d" (i + 1))
let yvars l = List.init l (fun i -> Printf.sprintf "y%d" (i + 1))

let check_tuple g v =
  Array.iter
    (fun x -> if x < 0 || x >= Graph.order g then raise (Graph.Invalid_vertex x))
    v

let of_formula g ~k ~formula ~params =
  check_tuple g params;
  let ell = Array.length params in
  Analysis.Guard.require ~what:"Hypothesis.of_formula"
    (Analysis.Guard.budgets ~ell ~k ()
    @ Analysis.Guard.hypothesis_formula ~k ~ell formula);
  let vars = xvars k @ yvars ell in
  (* stage once: every sample tuple then runs the compiled closure tree
     instead of re-walking the AST *)
  let compiled = Modelcheck.Compile.compile g ~vars formula in
  {
    graph = g;
    k;
    ell;
    qrank = Fo.Formula.quantifier_rank formula;
    params;
    predictor =
      (fun v ->
        Modelcheck.Compile.holds_tuple compiled (Graph.Tuple.append v params));
    formula = lazy formula;
    signature =
      lazy
        (Printf.sprintf "F|%s|%s" (Fo.Formula.to_string formula)
           (String.concat "," (Array.to_list (Array.map string_of_int params))));
  }

module TySet = Set.Make (Int)

let type_signature tag ~q types params =
  Printf.sprintf "%s|q=%d|t=%s|w=%s" tag q
    (String.concat ","
       (List.map (fun t -> string_of_int (Types.hash t)) types))
    (String.concat "," (Array.to_list (Array.map string_of_int params)))

let of_types g ~k ~q ~types ~params =
  check_tuple g params;
  let ell = Array.length params in
  let ctx = Types.make_ctx g in
  let members = TySet.of_list (List.map Types.hash types) in
  let types = List.sort_uniq Types.compare types in
  {
    graph = g;
    k;
    ell;
    qrank = q;
    params;
    predictor =
      (fun v ->
        TySet.mem
          (Types.hash (Types.tp ctx ~q (Graph.Tuple.append v params)))
          members);
    formula =
      lazy
        (Modelcheck.Hintikka.of_types ~vars:(xvars k @ yvars ell)
           ~colors:(Graph.color_names g) types);
    signature = lazy (type_signature "T" ~q types params);
  }

let of_local_types g ~k ~q ~r ~types ~params =
  check_tuple g params;
  let ell = Array.length params in
  let ctx = Types.make_ctx g in
  let members = TySet.of_list (List.map Types.hash types) in
  let types = List.sort_uniq Types.compare types in
  {
    graph = g;
    k;
    ell;
    qrank = q + Fo.Gaifman.rank_overhead r + 1;
    params;
    predictor =
      (fun v ->
        TySet.mem
          (Types.hash (Types.ltp ctx ~q ~r (Graph.Tuple.append v params)))
          members);
    formula =
      lazy
        (let colors = Graph.color_names g and vars = xvars k @ yvars ell in
         Fo.Formula.or_
           (List.map
              (fun ty ->
                Fo.Localize.relativize ~r ~around:vars
                  (Modelcheck.Hintikka.of_type ~vars ~colors ty))
              (Modelcheck.Hintikka.content_order types)));
    signature = lazy (type_signature (Printf.sprintf "L%d" r) ~q types params);
  }

let of_counting_types g ~k ~q ~tmax ~types ~params =
  check_tuple g params;
  let ell = Array.length params in
  let ctx = Modelcheck.Ctypes.make_ctx g in
  let members =
    TySet.of_list (List.map Modelcheck.Ctypes.hash types)
  in
  let types = List.sort_uniq Modelcheck.Ctypes.compare types in
  {
    graph = g;
    k;
    ell;
    qrank = q;
    params;
    predictor =
      (fun v ->
        TySet.mem
          (Modelcheck.Ctypes.hash
             (Modelcheck.Ctypes.ctp ctx ~q ~tmax (Graph.Tuple.append v params)))
          members);
    formula =
      lazy
        (Fo.Formula.or_
           (List.map
              (Modelcheck.Ctypes.hintikka ~vars:(xvars k @ yvars ell)
                 ~colors:(Graph.color_names g) ~tmax)
              (Modelcheck.Ctypes.content_order types)));
    signature =
      lazy
        (Printf.sprintf "C%d|q=%d|t=%s|w=%s" tmax q
           (String.concat ","
              (List.map
                 (fun t -> string_of_int (Modelcheck.Ctypes.hash t))
                 types))
           (String.concat ","
              (Array.to_list (Array.map string_of_int params))));
  }

let of_counting_local_types g ~k ~q ~tmax ~r ~types ~params =
  check_tuple g params;
  let ell = Array.length params in
  let ctx = Modelcheck.Ctypes.make_ctx g in
  let members = TySet.of_list (List.map Modelcheck.Ctypes.hash types) in
  let types = List.sort_uniq Modelcheck.Ctypes.compare types in
  {
    graph = g;
    k;
    ell;
    qrank = q + Fo.Gaifman.rank_overhead r + 1;
    params;
    predictor =
      (fun v ->
        TySet.mem
          (Modelcheck.Ctypes.hash
             (Modelcheck.Ctypes.cltp ctx ~q ~tmax ~r
                (Graph.Tuple.append v params)))
          members);
    formula =
      lazy
        (let colors = Graph.color_names g and vars = xvars k @ yvars ell in
         Fo.Formula.or_
           (List.map
              (fun ty ->
                Fo.Localize.relativize ~r ~around:vars
                  (Modelcheck.Ctypes.hintikka ~vars ~colors ~tmax ty))
              (Modelcheck.Ctypes.content_order types)));
    signature =
      lazy
        (Printf.sprintf "CL%d_%d|q=%d|t=%s|w=%s" tmax r q
           (String.concat ","
              (List.map
                 (fun t -> string_of_int (Modelcheck.Ctypes.hash t))
                 types))
           (String.concat ","
              (Array.to_list (Array.map string_of_int params))));
  }

let constantly g ~k b =
  {
    graph = g;
    k;
    ell = 0;
    qrank = 0;
    params = [||];
    predictor = (fun _ -> b);
    formula = lazy (if b then Fo.Formula.tru else Fo.Formula.fls);
    signature = lazy (if b then "C|1" else "C|0");
  }

(* Combine two hypotheses: concatenated parameters, second operand's
   parameter variables shifted past the first's. *)
let combine op_name op_formula op_pred a b =
  if a.k <> b.k then
    invalid_arg (Printf.sprintf "Hypothesis.%s: arity mismatch" op_name);
  let shift =
    List.init b.ell (fun i ->
        (Printf.sprintf "y%d" (i + 1), Printf.sprintf "y%d" (a.ell + i + 1)))
  in
  {
    graph = a.graph;
    k = a.k;
    ell = a.ell + b.ell;
    qrank = max a.qrank b.qrank;
    params = Array.append a.params b.params;
    predictor = (fun v -> op_pred (a.predictor v) (b.predictor v));
    formula =
      lazy
        (op_formula (Lazy.force a.formula)
           (Fo.Formula.substitute shift (Lazy.force b.formula)));
    signature =
      lazy
        (Printf.sprintf "%s(%s;%s)" op_name (Lazy.force a.signature)
           (Lazy.force b.signature));
  }

let conj a b =
  combine "conj" (fun f g -> Fo.Formula.and_ [ f; g ]) ( && ) a b

let disj a b =
  combine "disj" (fun f g -> Fo.Formula.or_ [ f; g ]) ( || ) a b

let negate h =
  {
    h with
    predictor = (fun v -> not (h.predictor v));
    formula = lazy (Fo.Formula.not_ (Lazy.force h.formula));
    signature = lazy ("not(" ^ Lazy.force h.signature ^ ")");
  }

let predict h v =
  if Array.length v <> h.k then
    invalid_arg "Hypothesis.predict: tuple arity mismatch";
  h.predictor v

let formula h = Lazy.force h.formula
let params h = h.params
let k h = h.k
let ell h = h.ell
let quantifier_rank h = h.qrank
let training_error h lam = Sample.error_of h.predictor lam
let signature h = Lazy.force h.signature

(* one span per printed witness, never per node; forcing the lazy
   Hintikka build inside it attributes materialisation apart from
   rendering *)
let pp ppf h =
  Obs.Span.with_ "hypothesis.render" @@ fun () ->
  let phi = Obs.Span.with_ "hintikka.build" (fun () -> formula h) in
  Format.fprintf ppf "@[<v>phi(x1..x%d; y1..y%d) =@;<1 2>%t@,w = %a@]" h.k
    h.ell
    (fun ppf -> Fo.Formula.render ~col:2 (Format.pp_print_string ppf) phi)
    Graph.Tuple.pp h.params
