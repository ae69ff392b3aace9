let variables k = List.init k (fun i -> Printf.sprintf "x%d" (i + 1))

let formulas_built = Obs.Metric.counter "modelcheck.hintikka.formulas_built"

let atomic_formula ~colors (sg : Types.atomsig) vars =
  let var = Array.of_list vars in
  let k = sg.Types.sig_arity in
  if Array.length var <> k then
    invalid_arg "Hintikka: variable/arity mismatch";
  let conjuncts = ref [] in
  let push f = conjuncts := f :: !conjuncts in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let e = Fo.Formula.eq var.(i) var.(j) in
      push (if List.mem (i, j) sg.Types.eqs then e else Fo.Formula.not_ e);
      let a = Fo.Formula.edge var.(i) var.(j) in
      push (if List.mem (i, j) sg.Types.edgs then a else Fo.Formula.not_ a)
    done
  done;
  for i = 0 to k - 1 do
    let held = sg.Types.cols.(i) in
    List.iter
      (fun c ->
        if not (List.mem c colors) then
          invalid_arg
            (Printf.sprintf "Hintikka: colour %S not in vocabulary" c))
      held;
    List.iter
      (fun c ->
        let a = Fo.Formula.color c var.(i) in
        push (if List.mem c held then a else Fo.Formula.not_ a))
      colors
  done;
  Fo.Formula.and_ (List.rev !conjuncts)

(* Each distinct type is built once per call and shared wherever it
   recurs: the unshared tree repeats every child under ∃ and again
   under ∀.  Fuel stays that of the unshared build — one tick per node
   of it — because a memo hit, and each parent for its ∀ copies, tick
   the node count of the subtree they reuse. *)
let of_type ?vars ~colors theta =
  Obs.Metric.incr formulas_built;
  let memo = Hashtbl.create 16 in
  let rec go theta vars =
    match Hashtbl.find_opt memo theta with
    | Some ((_, nodes) as built) ->
        Guard.tick ~cost:nodes Guard.Hintikka_build;
        built
    | None ->
        Guard.tick Guard.Hintikka_build;
        let sg, children = Types.node theta in
        let atomic = atomic_formula ~colors sg vars in
        let built =
          match children with
          | None -> (atomic, 1)
          | Some kids ->
              let y = Printf.sprintf "x%d" (List.length vars + 1) in
              let vars' = vars @ [ y ] in
              let kids = List.map (fun kid -> go kid vars') kids in
              let realised =
                List.map (fun (f, _) -> Fo.Formula.exists y f) kids
              in
              let again = List.fold_left (fun acc (_, c) -> acc + c) 0 kids in
              if again > 0 then Guard.tick ~cost:again Guard.Hintikka_build;
              let exhausted =
                Fo.Formula.forall y (Fo.Formula.or_ (List.map fst kids))
              in
              let f = Fo.Formula.and_ ((atomic :: realised) @ [ exhausted ]) in
              (f, 1 + (2 * again))
        in
        Hashtbl.replace memo theta built;
        built
  in
  let vars =
    match vars with Some v -> v | None -> variables (Types.arity theta)
  in
  fst (go theta vars)

let of_types ?vars ~colors thetas =
  Fo.Formula.or_ (List.map (of_type ?vars ~colors) thetas)

let of_tuple ~colors g ~q u =
  of_type ~colors (Types.tp_graph g ~q u)
