open Cgraph

type ty = int

let equal (a : ty) (b : ty) = a = b
let compare (a : ty) (b : ty) = Int.compare a b
let hash (a : ty) = a
let pp ppf (a : ty) = Format.fprintf ppf "c#%d" a

(* ------------------------------------------------------------------ *)
(* Registry (separate from the plain-type registry; sharded, see       *)
(* Intern)                                                             *)
(* ------------------------------------------------------------------ *)

module Reg = Intern.Make (struct
  type key = Types.atomsig * (ty * int) list option

  let dummy =
    ({ Types.sig_arity = 0; eqs = []; edgs = []; cols = [||] }, None)
  let prefix = "modelcheck.ctypes"

  let hash (sg, kids) =
    let h = Hashtbl.hash sg in
    match kids with
    | None -> h
    | Some ts ->
        List.fold_left (fun h (t, c) -> (((h * 31) + t) * 31) + c) h ts
        land max_int
end)

let intern = Reg.intern
let rank = Reg.rank

let arity (t : ty) =
  let sg, _ = Reg.key t in
  sg.Types.sig_arity

let node (t : ty) = Reg.key t

type table_stats = Reg.stats = { live : int; bytes : int }

let table_stats = Reg.stats
let reset_tables = Reg.reset

(* ------------------------------------------------------------------ *)
(* Computation                                                         *)
(* ------------------------------------------------------------------ *)

type ctx = {
  g : Graph.t;
  coder : Types.Coder.t Lazy.t;
  memo : (int * int * Graph.Tuple.t, ty) Hashtbl.t;
  lmemo : (int * int * int * Graph.Tuple.t, ty) Hashtbl.t;
}

let make_ctx g =
  {
    g;
    coder = lazy (Types.Coder.make g);
    memo = Hashtbl.create 256;
    lmemo = Hashtbl.create 256;
  }

let intern_leaf sg = intern (sg, None) 0
let by_type (a, ca) (b, cb) =
  match Int.compare a b with 0 -> Int.compare ca cb | c -> c

let rec compute ctx c ~q ~tmax u p =
  if q = 0 then Types.Coder.leaf c ~intern:intern_leaf p
  else if q = 1 then
    let kids =
      Types.Coder.leaves c ~intern:intern_leaf ~cap:tmax ~each:ignore p u
    in
    intern (Types.Coder.signature c p, Some (List.sort by_type kids)) 1
  else begin
    let n = Graph.order ctx.g in
    let ids = Array.make n 0 in
    Types.Coder.extend c p u ids;
    let counts : (ty, int) Hashtbl.t = Hashtbl.create 16 in
    for w = 0 to n - 1 do
      let child =
        compute ctx c ~q:(q - 1) ~tmax (Graph.Tuple.append u [| w |]) ids.(w)
      in
      let m = Option.value (Hashtbl.find_opt counts child) ~default:0 in
      Hashtbl.replace counts child (min tmax (m + 1))
    done;
    let children =
      Hashtbl.fold (fun child m acc -> (child, m) :: acc) counts []
      |> List.sort by_type
    in
    intern (Types.Coder.signature c p, Some children) q
  end

let ctp ctx ~q ~tmax u =
  if q < 0 then invalid_arg "Ctypes.ctp: negative quantifier rank";
  if tmax < 1 then invalid_arg "Ctypes.ctp: threshold cap must be >= 1";
  match Hashtbl.find_opt ctx.memo (q, tmax, u) with
  | Some t -> t
  | None ->
      let c = Lazy.force ctx.coder in
      Types.Coder.check_arity c (Array.length u + q);
      let t = compute ctx c ~q ~tmax u (Types.Coder.of_tuple c u) in
      Hashtbl.replace ctx.memo (q, tmax, u) t;
      t

let cltp ctx ~q ~tmax ~r u =
  if r < 0 then invalid_arg "Ctypes.cltp: negative radius";
  match Hashtbl.find_opt ctx.lmemo (q, tmax, r, u) with
  | Some t -> t
  | None ->
      let emb = Ops.neighborhood ctx.g ~r u in
      let u' =
        Array.map
          (fun v ->
            match emb.Ops.to_sub v with Some v' -> v' | None -> assert false)
          u
      in
      let t = ctp (make_ctx emb.Ops.graph) ~q ~tmax u' in
      Hashtbl.replace ctx.lmemo (q, tmax, r, u) t;
      t

let partition ctx ~q ~tmax tuples =
  let tbl : (ty, Graph.Tuple.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun u ->
      let t = ctp ctx ~q ~tmax u in
      match Hashtbl.find_opt tbl t with
      | Some cell -> cell := u :: !cell
      | None ->
          Hashtbl.replace tbl t (ref [ u ]);
          order := t :: !order)
    tuples;
  List.rev_map (fun t -> (t, List.rev !(Hashtbl.find tbl t))) !order

let count_types g ~q ~tmax ~k =
  let ctx = make_ctx g in
  partition ctx ~q ~tmax (Graph.Tuple.all ~n:(Graph.order g) ~k) |> List.length

(* ------------------------------------------------------------------ *)
(* Counting Hintikka formulas                                          *)
(* ------------------------------------------------------------------ *)

(* Each distinct child is built once per call and shared by its
   lower-bound, upper-bound and exhaustion conjuncts. *)
let content_order thetas = Hintikka.by_content (Hintikka.content_key node) thetas

let hintikka ?vars ~colors ~tmax theta =
  Obs.Metric.incr Hintikka.formulas_built;
  let key = Hintikka.content_key node in
  let memo = Hashtbl.create 16 in
  let rec go theta vars =
    match Hashtbl.find_opt memo theta with
    | Some f -> f
    | None ->
        let sg, children = node theta in
        let atomic = Hintikka.atomic_formula ~colors sg vars in
        let f =
          match children with
          | None -> atomic
          | Some kids ->
              let y = Printf.sprintf "x%d" (List.length vars + 1) in
              let vars' = vars @ [ y ] in
              let kids =
                List.map
                  (fun (kid, c) -> (go kid vars', c))
                  (Hintikka.by_content (fun (kid, _) -> key kid) kids)
              in
              let multiplicities =
                List.concat_map
                  (fun (f, c) ->
                    let lower = Fo.Formula.count_ge c y f in
                    if c < tmax then
                      [
                        lower;
                        Fo.Formula.not_ (Fo.Formula.count_ge (c + 1) y f);
                      ]
                    else [ lower ])
                  kids
              in
              let exhausted =
                Fo.Formula.forall y (Fo.Formula.or_ (List.map fst kids))
              in
              Fo.Formula.and_ ((atomic :: multiplicities) @ [ exhausted ])
        in
        Hashtbl.replace memo theta f;
        f
  in
  let vars =
    match vars with Some v -> v | None -> Hintikka.variables (arity theta)
  in
  go theta vars
