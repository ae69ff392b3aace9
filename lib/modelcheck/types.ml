open Cgraph

type ty = int

let equal (a : ty) (b : ty) = a = b
let compare (a : ty) (b : ty) = Int.compare a b
let hash (a : ty) = a
let pp ppf (a : ty) = Format.fprintf ppf "#%d" a

type atomsig = {
  sig_arity : int;
  eqs : (int * int) list;
  edgs : (int * int) list;
  cols : string list array;
}

(* ------------------------------------------------------------------ *)
(* Hash-consing registry (sharded; see Intern)                         *)
(* ------------------------------------------------------------------ *)

(* children sorted & deduplicated; None = rank 0 *)
module Reg = Intern.Make (struct
  type key = atomsig * ty list option

  let dummy = ({ sig_arity = 0; eqs = []; edgs = []; cols = [||] }, None)
  let prefix = "modelcheck.types"

  let hash (sg, kids) =
    let h = Hashtbl.hash sg in
    match kids with
    | None -> h
    | Some ts -> List.fold_left (fun h t -> (h * 31) + t) h ts land max_int
end)

let intern = Reg.intern
let rank = Reg.rank

let arity (t : ty) =
  let sg, _ = Reg.key t in
  sg.sig_arity

let node (t : ty) = Reg.key t

type table_stats = Reg.stats = { live : int; bytes : int }

let table_stats = Reg.stats
let reset_tables = Reg.reset

(* ------------------------------------------------------------------ *)
(* Atomic signatures                                                   *)
(* ------------------------------------------------------------------ *)

(* Pairs come out ordered by [j], then [i] — the order [Coder] relies
   on when it extends a signature by one position. *)
let atomic_signature g (u : Graph.Tuple.t) =
  let k = Array.length u in
  let eqs = ref [] and edgs = ref [] in
  for j = k - 1 downto 0 do
    for i = j - 1 downto 0 do
      if u.(i) = u.(j) then eqs := (i, j) :: !eqs;
      if Graph.mem_edge g u.(i) u.(j) then edgs := (i, j) :: !edgs
    done
  done;
  {
    sig_arity = k;
    eqs = !eqs;
    edgs = !edgs;
    cols = Array.map (Graph.colors_of g) u;
  }

(* ------------------------------------------------------------------ *)
(* Integer-coded atomic types                                          *)
(* ------------------------------------------------------------------ *)

module IntTbl = Hashtbl.Make (Int)

module Coder = struct
  (* Per graph, every atomic type met so far gets a dense code.  Code 0
     is the empty tuple; the code of ū·w is looked up in the table of
     ū's code under the key (eq mask, edge mask, colour-set id of w),
     where bit i of the masks says u_i = w resp. E(u_i, w).  Codes are
     canonical within one coder only: the global [ty] of a leaf comes
     from interning its [atomsig] the first time its code appears. *)
  type t = {
    g : Graph.t;
    n : int;
    colset : int array;  (* vertex -> colour-set id *)
    colsets : string list array;  (* colour-set id -> sorted colours *)
    ncs : int;
    max_arity : int;
    eq : int array;  (* per-vertex scratch masks, zero between calls *)
    adj : int array;
    ids : int array;  (* scratch for [leaves] *)
    mutable size : int;
    mutable sigs : atomsig array;  (* code -> signature *)
    mutable ext : int IntTbl.t array;  (* code -> extension table *)
    mutable leaf : int array;  (* code -> leaf type id, -1 = not yet *)
    mutable seen : int array;  (* code -> last [leaves] call it met *)
    mutable count : int array;  (* code -> its count in that call *)
    mutable call : int;
  }

  let empty_sig = { sig_arity = 0; eqs = []; edgs = []; cols = [||] }

  let make g =
    let n = Graph.order g in
    let sets = Hashtbl.create 8 and names = ref [] in
    let colset =
      Array.init n (fun v ->
          let cs = Graph.colors_of g v in
          match Hashtbl.find_opt sets cs with
          | Some id -> id
          | None ->
              let id = Hashtbl.length sets in
              Hashtbl.replace sets cs id;
              names := cs :: !names;
              id)
    in
    let colsets = Array.of_list (List.rev !names) in
    let ncs = max 1 (Array.length colsets) in
    (* codes under a parent of arity k stay below 4^k * ncs *)
    let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1) in
    {
      g;
      n;
      colset;
      colsets;
      ncs;
      max_arity = ((Sys.int_size - 1 - bits ncs) / 2) + 1;
      eq = Array.make n 0;
      adj = Array.make n 0;
      ids = Array.make n 0;
      size = 1;
      sigs = [| empty_sig |];
      ext = [| IntTbl.create 8 |];
      leaf = [| -1 |];
      seen = [| 0 |];
      count = [| 0 |];
      call = 0;
    }

  let check_arity c a =
    if a > c.max_arity then
      invalid_arg
        (Printf.sprintf "Types: arity %d is too large for the atomic-type coder"
           a)

  let grow c =
    let cap = 2 * Array.length c.sigs in
    let extend arr fill =
      let bigger = Array.make cap fill in
      Array.blit arr 0 bigger 0 c.size;
      bigger
    in
    c.sigs <- extend c.sigs empty_sig;
    c.ext <- extend c.ext (IntTbl.create 1);
    c.leaf <- extend c.leaf (-1);
    c.seen <- extend c.seen 0;
    c.count <- extend c.count 0

  (* The code of ū·w, where [p] is the code of ū (arity [k]) and w has
     masks [e], [a] and colour-set id [s]. *)
  let child c p ~k ~e ~a ~s =
    let tbl = c.ext.(p) in
    let key = (((e lsl k) lor a) * c.ncs) + s in
    match IntTbl.find_opt tbl key with
    | Some id -> id
    | None ->
        let id = c.size in
        if id = Array.length c.sigs then grow c;
        let sg = c.sigs.(p) in
        let pairs m =
          List.filter_map
            (fun i -> if (m lsr i) land 1 = 1 then Some (i, k) else None)
            (List.init k Fun.id)
        in
        c.sigs.(id) <-
          {
            sig_arity = k + 1;
            eqs = sg.eqs @ pairs e;
            edgs = sg.edgs @ pairs a;
            cols = Array.append sg.cols [| c.colsets.(s) |];
          };
        c.ext.(id) <- IntTbl.create 8;
        c.size <- id + 1;
        IntTbl.replace tbl key id;
        id

  let of_tuple c (u : Graph.Tuple.t) =
    let p = ref 0 in
    Array.iteri
      (fun k w ->
        if w < 0 || w >= c.n then raise (Graph.Invalid_vertex w);
        let e = ref 0 and a = ref 0 in
        for i = 0 to k - 1 do
          if u.(i) = w then e := !e lor (1 lsl i);
          if Graph.mem_edge c.g u.(i) w then a := !a lor (1 lsl i)
        done;
        p := child c !p ~k ~e:!e ~a:!a ~s:c.colset.(w))
      u;
    !p

  let signature c p = c.sigs.(p)

  (* [dst.(w)] <- code of ū·w for every vertex w, where [p] is the code
     of ū.  One scan of each u_i's neighbours sets the masks. *)
  let extend c p (u : Graph.Tuple.t) dst =
    let k = Array.length u in
    Array.iteri
      (fun i v ->
        let bit = 1 lsl i in
        c.eq.(v) <- c.eq.(v) lor bit;
        Graph.iter_neighbors c.g v (fun w -> c.adj.(w) <- c.adj.(w) lor bit))
      u;
    for w = 0 to c.n - 1 do
      dst.(w) <- child c p ~k ~e:c.eq.(w) ~a:c.adj.(w) ~s:c.colset.(w)
    done;
    Array.iter
      (fun v ->
        c.eq.(v) <- 0;
        Graph.iter_neighbors c.g v (fun w -> c.adj.(w) <- 0))
      u

  let leaf c ~intern p =
    if c.leaf.(p) < 0 then c.leaf.(p) <- intern c.sigs.(p);
    c.leaf.(p)

  (* The distinct leaf children atp(ū·w) of a rank-1 node, in order of
     first appearance over w = 0..n-1, each with its multiplicity capped
     at [cap].  [each] runs once per w before that leaf is resolved; a
     leaf type is interned the first time its code appears.  Counts are
     tagged with a fresh call number, so a call that [each] aborts (a
     guard trip) leaves nothing for the next one to clear. *)
  let leaves c ~intern ~cap ~each p u =
    extend c p u c.ids;
    c.call <- c.call + 1;
    let distinct = ref [] in
    for w = 0 to c.n - 1 do
      each ();
      let id = c.ids.(w) in
      if c.seen.(id) <> c.call then begin
        c.seen.(id) <- c.call;
        c.count.(id) <- 1;
        ignore (leaf c ~intern id);
        distinct := id :: !distinct
      end
      else if c.count.(id) < cap then c.count.(id) <- c.count.(id) + 1
    done;
    List.rev_map (fun id -> (c.leaf.(id), c.count.(id))) !distinct
end

(* ------------------------------------------------------------------ *)
(* Contexts and type computation                                       *)
(* ------------------------------------------------------------------ *)

let tp_hits = Obs.Metric.counter "modelcheck.types.tp_hits"
let tp_misses = Obs.Metric.counter "modelcheck.types.tp_misses"
let ltp_hits = Obs.Metric.counter "modelcheck.types.ltp_hits"
let ltp_misses = Obs.Metric.counter "modelcheck.types.ltp_misses"
let ltp_radius_h = Obs.Metric.histogram "modelcheck.types.ltp_radius"

type ctx = {
  g : Graph.t;
  coder : Coder.t Lazy.t;
  tp_memo : (int * Graph.Tuple.t, ty) Hashtbl.t;
  mutable rows : int;
  ltp_memo : (int * int * Graph.Tuple.t, ty) Hashtbl.t;
}

let make_ctx g =
  {
    g;
    coder = lazy (Coder.make g);
    tp_memo = Hashtbl.create 256;
    rows = 0;
    ltp_memo = Hashtbl.create 256;
  }

let graph ctx = ctx.g

let intern_leaf sg = intern (sg, None) 0

(* One type computation: a miss of the all-rank memo the accounting
   models, whose [rows] grow by one as each computation completes. *)
let computation ctx =
  Obs.Metric.incr tp_misses;
  Guard.note_table_row (ctx.rows + 1)

let rec compute ctx c ~q u p =
  computation ctx;
  let t =
    if q = 0 then Coder.leaf c ~intern:intern_leaf p
    else if q = 1 then
      let each () =
        computation ctx;
        ctx.rows <- ctx.rows + 1
      in
      let kids = Coder.leaves c ~intern:intern_leaf ~cap:1 ~each p u in
      let kids = List.sort Int.compare (List.map fst kids) in
      intern (Coder.signature c p, Some kids) 1
    else begin
      let n = Graph.order ctx.g in
      let ids = Array.make n 0 in
      Coder.extend c p u ids;
      let kids = ref [] in
      for w = 0 to n - 1 do
        let uw = Graph.Tuple.append u [| w |] in
        kids := compute ctx c ~q:(q - 1) uw ids.(w) :: !kids
      done;
      intern (Coder.signature c p, Some (List.sort_uniq Int.compare !kids)) q
    end
  in
  ctx.rows <- ctx.rows + 1;
  t

let tp ctx ~q u =
  if q < 0 then invalid_arg "Types.tp: negative quantifier rank";
  match Hashtbl.find_opt ctx.tp_memo (q, u) with
  | Some t ->
      Obs.Metric.incr tp_hits;
      t
  | None ->
      let c = Lazy.force ctx.coder in
      Coder.check_arity c (Array.length u + q);
      let t = compute ctx c ~q u (Coder.of_tuple c u) in
      Hashtbl.replace ctx.tp_memo (q, u) t;
      t

let tp_graph g ~q u = tp (make_ctx g) ~q u

let ltp ctx ~q ~r u =
  if r < 0 then invalid_arg "Types.ltp: negative radius";
  if Obs.Sink.enabled () then Obs.Metric.observe ltp_radius_h (float_of_int r);
  match Hashtbl.find_opt ctx.ltp_memo (q, r, u) with
  | Some t ->
      Obs.Metric.incr ltp_hits;
      t
  | None ->
      Obs.Metric.incr ltp_misses;
      Guard.tick Guard.Hintikka_build;
      let emb = Ops.neighborhood ctx.g ~r u in
      let u' =
        Array.map
          (fun v ->
            match emb.Ops.to_sub v with
            | Some v' -> v'
            | None -> assert false (* members of ū are in their own ball *))
          u
      in
      let t = tp (make_ctx emb.Ops.graph) ~q u' in
      Hashtbl.replace ctx.ltp_memo (q, r, u) t;
      t

let partition_by keyf tuples =
  let tbl : (ty, Graph.Tuple.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun u ->
      let t = keyf u in
      match Hashtbl.find_opt tbl t with
      | Some cell -> cell := u :: !cell
      | None ->
          Hashtbl.replace tbl t (ref [ u ]);
          order := t :: !order)
    tuples;
  List.rev_map
    (fun t -> (t, List.rev !(Hashtbl.find tbl t)))
    !order

let partition_by_tp ctx ~q tuples = partition_by (fun u -> tp ctx ~q u) tuples

let partition_by_ltp ctx ~q ~r tuples =
  partition_by (fun u -> ltp ctx ~q ~r u) tuples

let count_types g ~q ~k =
  let ctx = make_ctx g in
  partition_by_tp ctx ~q (Graph.Tuple.all ~n:(Graph.order g) ~k) |> List.length
