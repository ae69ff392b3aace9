open Cgraph

type example = Graph.Tuple.t * bool
type t = example list

let size = List.length

let positives lam = List.filter_map (fun (v, b) -> if b then Some v else None) lam
let negatives lam = List.filter_map (fun (v, b) -> if b then None else Some v) lam

let arity = function
  | [] -> None
  | (first, _) :: rest ->
      let k = Array.length first in
      List.iter
        (fun (v, _) ->
          if Array.length v <> k then
            invalid_arg "Sample.arity: examples of mixed arity")
        rest;
      Some k

let errors_of h lam =
  List.fold_left (fun acc (v, b) -> if h v <> b then acc + 1 else acc) 0 lam

let error_of h lam =
  match lam with
  | [] -> 0.0
  | _ -> float_of_int (errors_of h lam) /. float_of_int (size lam)

let all_tuples g ~k = Graph.Tuple.all ~n:(Graph.order g) ~k

let random_tuples ~seed g ~k ~m =
  let st = Random.State.make [| seed; 0x5a |] in
  let n = Graph.order g in
  if n = 0 && m > 0 then invalid_arg "Sample.random_tuples: empty graph";
  List.init m (fun _ -> Array.init k (fun _ -> Random.State.int st n))

let label_with _g ~target tuples = List.map (fun v -> (v, target v)) tuples

let label_with_query g ~formula ~xvars ?(yvars = []) ?(params = [||]) tuples =
  if List.length yvars <> Array.length params then
    invalid_arg "Sample.label_with_query: parameter arity mismatch";
  let vars = xvars @ yvars in
  Analysis.Guard.require ~what:"Sample.label_with_query"
    (Analysis.Fo_check.check ~allowed_free:vars formula);
  let compiled = Modelcheck.Compile.compile g ~vars formula in
  List.map
    (fun v ->
      (v, Modelcheck.Compile.holds_tuple compiled (Graph.Tuple.append v params)))
    tuples

let is_probability p = not (p < 0.0 || p > 1.0)

let flip_noise ~seed ~p lam =
  if not (is_probability p) then
    invalid_arg "Sample.flip_noise: bad probability";
  let st = Random.State.make [| seed; 0xf1 |] in
  List.map
    (fun (v, b) -> if Random.State.float st 1.0 < p then (v, not b) else (v, b))
    lam

let shuffle ~seed lam =
  let st = Random.State.make [| seed; 0x5f |] in
  let arr = Array.of_list lam in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let split ~seed ~ratio lam =
  if ratio < 0.0 || ratio > 1.0 then invalid_arg "Sample.split: bad ratio";
  let shuffled = shuffle ~seed lam in
  let cut =
    int_of_float (Float.round (ratio *. float_of_int (List.length shuffled)))
  in
  (List.filteri (fun i _ -> i < cut) shuffled,
   List.filteri (fun i _ -> i >= cut) shuffled)

let kfold ~seed ~k lam =
  let m = List.length lam in
  if k < 1 || k > m then invalid_arg "Sample.kfold: need 1 <= k <= size";
  let shuffled = shuffle ~seed lam in
  List.init k (fun fold ->
      let validation =
        List.filteri (fun i _ -> i mod k = fold) shuffled
      in
      let train = List.filteri (fun i _ -> i mod k <> fold) shuffled in
      (train, validation))

let pp ppf lam =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (v, b) ->
      Format.fprintf ppf "%a -> %d@," Graph.Tuple.pp v (if b then 1 else 0))
    lam;
  Format.fprintf ppf "@]"
