type var = string

type atom =
  | Eq of var * var
  | Edge of var * var
  | Color of string * var

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Exists of var * t
  | Forall of var * t
  | CountGe of int * var * t

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let tru = True
let fls = False
let eq x y = Atom (Eq (x, y))
let edge x y = Atom (Edge (x, y))
let color c x = Atom (Color (c, x))

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let and_ fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> flatten acc rest
    | False :: _ -> None
    | And gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs -> And fs

let or_ fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> flatten acc rest
    | True :: _ -> None
    | Or gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs -> Or fs

let implies a b =
  match (a, b) with
  | False, _ -> True
  | True, b -> b
  | _, True -> True
  | a, False -> not_ a
  | a, b -> Implies (a, b)

let iff a b =
  match (a, b) with
  | True, b -> b
  | a, True -> a
  | False, b -> not_ b
  | a, False -> not_ a
  | a, b -> Iff (a, b)

let exists x f = match f with False -> False | f -> Exists (x, f)
let forall x f = match f with True -> True | f -> Forall (x, f)

let count_ge t x f =
  if t < 0 then invalid_arg "Formula.count_ge: negative threshold";
  if t = 0 then True
  else match f with False -> False | f -> CountGe (t, x, f)
let exists_many xs f = List.fold_right exists xs f
let forall_many xs f = List.fold_right forall xs f

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let rec quantifier_rank = function
  | True | False | Atom _ -> 0
  | Not f -> quantifier_rank f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> max acc (quantifier_rank f)) 0 fs
  | Implies (a, b) | Iff (a, b) ->
      max (quantifier_rank a) (quantifier_rank b)
  | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> 1 + quantifier_rank f

module VSet = Set.Make (String)

let atom_vars = function
  | Eq (x, y) | Edge (x, y) -> VSet.of_list [ x; y ]
  | Color (_, x) -> VSet.singleton x

let rec free_set = function
  | True | False -> VSet.empty
  | Atom a -> atom_vars a
  | Not f -> free_set f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> VSet.union acc (free_set f)) VSet.empty fs
  | Implies (a, b) | Iff (a, b) -> VSet.union (free_set a) (free_set b)
  | Exists (x, f) | Forall (x, f) | CountGe (_, x, f) -> VSet.remove x (free_set f)

let free_vars f = VSet.elements (free_set f)

let rec all_set = function
  | True | False -> VSet.empty
  | Atom a -> atom_vars a
  | Not f -> all_set f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> VSet.union acc (all_set f)) VSet.empty fs
  | Implies (a, b) | Iff (a, b) -> VSet.union (all_set a) (all_set b)
  | Exists (x, f) | Forall (x, f) | CountGe (_, x, f) -> VSet.add x (all_set f)

let all_vars f = VSet.elements (all_set f)

module SSet = Set.Make (String)

let colors_used f =
  let rec go acc = function
    | True | False -> acc
    | Atom (Color (c, _)) -> SSet.add c acc
    | Atom _ -> acc
    | Not f -> go acc f
    | And fs | Or fs -> List.fold_left go acc fs
    | Implies (a, b) | Iff (a, b) -> go (go acc a) b
    | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> go acc f
  in
  SSet.elements (go SSet.empty f)

let rec size = function
  | True | False | Atom _ -> 1
  | Not f -> 1 + size f
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + size f) 1 fs
  | Implies (a, b) | Iff (a, b) -> 1 + size a + size b
  | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> 1 + size f

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (f : t) = Hashtbl.hash f

(* ------------------------------------------------------------------ *)
(* Renaming and substitution                                           *)
(* ------------------------------------------------------------------ *)

let fresh_var ~avoid base =
  if not (List.mem base avoid) then base
  else begin
    let rec go i =
      let cand = Printf.sprintf "%s%d" base i in
      if List.mem cand avoid then go (i + 1) else cand
    in
    go 0
  end

let rename sigma f =
  (* capture-avoiding: when entering a binder whose variable collides with
     the image of a free variable, refresh the bound variable first. *)
  let rec go sigma f =
    match f with
    | True | False -> f
    | Atom (Eq (x, y)) -> Atom (Eq (sigma x, sigma y))
    | Atom (Edge (x, y)) -> Atom (Edge (sigma x, sigma y))
    | Atom (Color (c, x)) -> Atom (Color (c, sigma x))
    | Not f -> Not (go sigma f)
    | And fs -> And (List.map (go sigma) fs)
    | Or fs -> Or (List.map (go sigma) fs)
    | Implies (a, b) -> Implies (go sigma a, go sigma b)
    | Iff (a, b) -> Iff (go sigma a, go sigma b)
    | Exists (x, body) ->
        let x', body' = refresh sigma x body in
        Exists (x', go (under x' sigma) body')
    | Forall (x, body) ->
        let x', body' = refresh sigma x body in
        Forall (x', go (under x' sigma) body')
    | CountGe (t, x, body) ->
        let x', body' = refresh sigma x body in
        CountGe (t, x', go (under x' sigma) body')
  and under x sigma y = if y = x then x else sigma y
  and refresh sigma x body =
    let fv = VSet.remove x (free_set body) in
    let images = VSet.elements fv |> List.map sigma in
    if List.mem x images then begin
      let avoid = images @ VSet.elements (all_set body) in
      let x' = fresh_var ~avoid x in
      let body' =
        go (fun y -> if y = x then x' else y) body
      in
      (x', body')
    end
    else (x, body)
  in
  go sigma f

let substitute assoc f =
  rename (fun x -> match List.assoc_opt x assoc with Some y -> y | None -> x) f

let rec map_atoms h = function
  | True -> True
  | False -> False
  | Atom a -> h a
  | Not f -> not_ (map_atoms h f)
  | And fs -> and_ (List.map (map_atoms h) fs)
  | Or fs -> or_ (List.map (map_atoms h) fs)
  | Implies (a, b) -> implies (map_atoms h a) (map_atoms h b)
  | Iff (a, b) -> iff (map_atoms h a) (map_atoms h b)
  | Exists (x, f) -> exists x (map_atoms h f)
  | Forall (x, f) -> forall x (map_atoms h f)
  | CountGe (t, x, f) -> count_ge t x (map_atoms h f)

(* ------------------------------------------------------------------ *)
(* Normal forms                                                        *)
(* ------------------------------------------------------------------ *)

let rec nnf f =
  match f with
  | True | False | Atom _ -> f
  | Implies (a, b) -> nnf (Or [ Not a; b ])
  | Iff (a, b) -> nnf (Or [ And [ a; b ]; And [ Not a; Not b ] ])
  | And fs -> and_ (List.map nnf fs)
  | Or fs -> or_ (List.map nnf fs)
  | Exists (x, f) -> exists x (nnf f)
  | Forall (x, f) -> forall x (nnf f)
  | CountGe (t, x, f) -> count_ge t x (nnf f)
  | Not g -> (
      match g with
      | True -> False
      | False -> True
      | Atom _ -> Not g
      | Not h -> nnf h
      | And fs -> or_ (List.map (fun f -> nnf (Not f)) fs)
      | Or fs -> and_ (List.map (fun f -> nnf (Not f)) fs)
      | Implies (a, b) -> nnf (And [ a; Not b ])
      | Iff (a, b) -> nnf (Or [ And [ a; Not b ]; And [ Not a; b ] ])
      | Exists (x, f) -> forall x (nnf (Not f))
      | Forall (x, f) -> exists x (nnf (Not f))
      | CountGe (t, x, f) ->
          (* "< t" has no positive form in our syntax; keep the guarded
             negation, whose operand is in NNF *)
          not_ (count_ge t x (nnf f)))

let rec simplify f =
  match f with
  | True | False -> f
  | Atom (Eq (x, y)) when x = y -> True
  | Atom _ -> f
  | Not f -> not_ (simplify f)
  | And fs -> and_ (List.sort_uniq Stdlib.compare (List.map simplify fs))
  | Or fs -> or_ (List.sort_uniq Stdlib.compare (List.map simplify fs))
  | Implies (a, b) -> implies (simplify a) (simplify b)
  | Iff (a, b) -> iff (simplify a) (simplify b)
  | Exists (x, f) ->
      let f = simplify f in
      if not (VSet.mem x (free_set f)) then f else exists x f
  | Forall (x, f) ->
      let f = simplify f in
      if not (VSet.mem x (free_set f)) then f else forall x f
  | CountGe (t, x, f) -> count_ge t x (simplify f)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* The layout is the one [Format] gives an hvbox around the formula and
   one around each And/Or list at margin 78 and max-indent 68, every
   other break belonging to the innermost box.  A box is flat iff its
   flat width is strictly less than the space left where it opens, so
   the fit test never looks further ahead than one margin; a broken box
   turns each of its breaks into a newline indented to the box's own
   column.  A box opened past column 68 inside a broken box first
   breaks to that box's indent, but its fit test keeps the space that
   was left before that break, as Format's look-ahead does.

   The fit test is the flat layout itself, run in measuring mode: the
   text advances the column without being written, and gives up as soon
   as it passes the limit, so the syntax is spelled out only once. *)

let margin = 78
let max_indent = 68
let chunk = 65536

(* precedence levels: 0 = iff, 1 = implies, 2 = or, 3 = and, 4 = unary *)
let parenthesised lvl = function
  | And _ -> lvl > 3
  | Or _ -> lvl > 2
  | Implies _ -> lvl > 1
  | Iff _ | Exists _ | Forall _ | CountGe _ -> lvl > 0
  | True | False | Atom _ | Not _ -> false

type out = {
  emit : string -> unit;
  buf : Bytes.t;
  mutable len : int;
  mutable col : int;
  (* while measuring, nothing is written and [col] may not pass [limit] *)
  mutable measuring : bool;
  mutable limit : int;
}

exception Too_wide

let flush o =
  if o.len > 0 then begin
    o.emit (Bytes.sub_string o.buf 0 o.len);
    o.len <- 0
  end

let advance o n =
  o.col <- o.col + n;
  if o.col > o.limit then raise_notrace Too_wide

(* the pieces are short: the common case is one blit into the chunk *)
let rec text o s =
  let n = String.length s in
  if o.measuring then advance o n
  else if o.len + n <= chunk then begin
    Bytes.unsafe_blit_string s 0 o.buf o.len n;
    o.len <- o.len + n;
    o.col <- o.col + n
  end
  else begin
    flush o;
    if n <= chunk then text o s
    else begin
      text o (String.sub s 0 chunk);
      text o (String.sub s chunk (n - chunk))
    end
  end

let char o c =
  if o.measuring then advance o 1
  else begin
    if o.len = chunk then flush o;
    Bytes.unsafe_set o.buf o.len c;
    o.len <- o.len + 1;
    o.col <- o.col + 1
  end

(* never called while measuring: a measured layout is flat *)
let newline o indent =
  if o.len + 1 + indent > chunk then flush o;
  Bytes.unsafe_set o.buf o.len '\n';
  Bytes.unsafe_fill o.buf (o.len + 1) indent ' ';
  o.len <- o.len + 1 + indent;
  o.col <- indent

(* a break of the innermost box *)
let break o ind = if ind < 0 then char o ' ' else newline o ind

(* [ind] is the indent of the innermost box if it is broken, -1 if it
   is flat *)
let rec layout o ind lvl f =
  let paren = parenthesised lvl f in
  if paren then char o '(';
  (match f with
  | True -> text o "true"
  | False -> text o "false"
  | Atom (Eq (x, y)) ->
      text o x;
      text o " = ";
      text o y
  | Atom (Edge (x, y)) ->
      text o "E(";
      text o x;
      text o ", ";
      text o y;
      char o ')'
  | Atom (Color (c, x)) ->
      text o c;
      char o '(';
      text o x;
      char o ')'
  | Not g ->
      char o '~';
      layout o ind 4 g
  | And fs -> box o ind 4 " /\\" fs
  | Or fs -> box o ind 3 " \\/" fs
  | Implies (g, h) ->
      layout o ind 2 g;
      text o " -> ";
      layout o ind 1 h
  | Iff (g, h) ->
      layout o ind 1 g;
      text o " <-> ";
      layout o ind 1 h
  | Exists (x, g) -> binder o ind "exists " x g
  | Forall (x, g) -> binder o ind "forall " x g
  | CountGe (t, x, g) -> binder o ind ("atleast " ^ string_of_int t ^ " ") x g);
  if paren then char o ')'

and binder o ind head x g =
  text o head;
  text o x;
  char o '.';
  break o ind;
  layout o ind 0 g

and box o ind lvl sep fs =
  let ind =
    if ind < 0 then -1
    else begin
      let space = margin - o.col in
      if o.col > max_indent then newline o ind;
      if fits o space lvl sep fs then -1 else o.col
    end
  in
  items o ind lvl sep fs

(* whether the flat layout of [items] is narrower than [space] columns *)
and fits o space lvl sep fs =
  let col = o.col in
  o.measuring <- true;
  o.col <- 0;
  o.limit <- space - 1;
  let fits =
    match items o (-1) lvl sep fs with () -> true | exception Too_wide -> false
  in
  o.measuring <- false;
  o.col <- col;
  fits

and items o ind lvl sep = function
  | [] -> ()
  | f :: fs ->
      layout o ind lvl f;
      List.iter
        (fun f ->
          text o sep;
          break o ind;
          layout o ind lvl f)
        fs

let render ?(col = 0) emit f =
  if col < 0 || col > max_indent then
    invalid_arg "Formula.render: column outside 0..68";
  let o =
    { emit; buf = Bytes.create chunk; len = 0; col; measuring = false; limit = 0 }
  in
  layout o (if fits o (margin - col) 0 "" [ f ] then -1 else col) 0 f;
  flush o

let pp ppf f = render (Format.pp_print_string ppf) f

let to_string f =
  let b = Buffer.create 256 in
  render (Buffer.add_string b) f;
  Buffer.contents b
