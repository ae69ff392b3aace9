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

(* Children and disjuncts are listed in an order that depends only on
   the types themselves, never on intern ids: ids follow the order in
   which types were first met, which varies with --jobs and with a
   resident server's history.  A key digests the atomic signature and
   the sorted keys (with multiplicities) of the children. *)
let content_key node =
  let memo = Hashtbl.create 64 in
  let pairs l =
    String.concat ";" (List.map (fun (i, j) -> Printf.sprintf "%d,%d" i j) l)
  in
  let rec key t =
    match Hashtbl.find_opt memo t with
    | Some k -> k
    | None ->
        let (sg : Types.atomsig), kids = node t in
        let kids =
          match kids with
          | None -> []
          | Some ks ->
              List.sort String.compare
                (List.map (fun (c, n) -> key c ^ string_of_int n) ks)
        in
        let k =
          Digest.string
            (String.concat "|"
               (string_of_int sg.Types.sig_arity
               :: pairs sg.Types.eqs :: pairs sg.Types.edgs
               :: Array.to_list (Array.map (String.concat ",") sg.Types.cols)
               @ kids))
        in
        Hashtbl.add memo t k;
        k
  in
  key

let by_content key l =
  List.map snd
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (List.map (fun t -> (key t, t)) l))

let plain_key () =
  content_key (fun t ->
      let sg, kids = Types.node t in
      (sg, Option.map (List.map (fun c -> (c, 1))) kids))

let content_order thetas = by_content (plain_key ()) thetas

(* Each distinct type is built once per call and shared wherever it
   recurs: the unshared tree repeats every child under ∃ and again
   under ∀.  Fuel stays that of the unshared build — one tick per node
   of it — because a memo hit, and each parent for its ∀ copies, tick
   the node count of the subtree they reuse. *)
let build ~key ?vars ~colors theta =
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
              let kids =
                List.map (fun kid -> go kid vars') (by_content key kids)
              in
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

let of_type ?vars ~colors theta = build ~key:(plain_key ()) ?vars ~colors theta

let of_types ?vars ~colors thetas =
  let key = plain_key () in
  Fo.Formula.or_ (List.map (build ~key ?vars ~colors) (by_content key thetas))

let of_tuple ~colors g ~q u =
  of_type ~colors (Types.tp_graph g ~q u)
