(* The Format-driven formula printer that Fo.Formula's renderer
   replaced, kept verbatim as the oracle its layout is checked against. *)

open Fo.Formula

(* precedence levels: 0 = iff, 1 = implies, 2 = or, 3 = and, 4 = unary *)
let rec pp_prec lvl ppf f =
  let paren needed body =
    if needed then Format.fprintf ppf "(%t)" body else body ppf
  in
  match f with
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Atom (Eq (x, y)) -> Format.fprintf ppf "%s = %s" x y
  | Atom (Edge (x, y)) -> Format.fprintf ppf "E(%s, %s)" x y
  | Atom (Color (c, x)) -> Format.fprintf ppf "%s(%s)" c x
  | Not f ->
      Format.pp_print_string ppf "~";
      pp_prec 4 ppf f
  | And fs ->
      paren (lvl > 3) (fun ppf ->
          Format.pp_open_hvbox ppf 0;
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf " /\\@ ")
            (pp_prec 4) ppf fs;
          Format.pp_close_box ppf ())
  | Or fs ->
      paren (lvl > 2) (fun ppf ->
          Format.pp_open_hvbox ppf 0;
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf " \\/@ ")
            (pp_prec 3) ppf fs;
          Format.pp_close_box ppf ())
  | Implies (a, b) ->
      paren (lvl > 1) (fun ppf ->
          Format.fprintf ppf "%a -> %a" (pp_prec 2) a (pp_prec 1) b)
  | Iff (a, b) ->
      paren (lvl > 0) (fun ppf ->
          Format.fprintf ppf "%a <-> %a" (pp_prec 1) a (pp_prec 1) b)
  | Exists (x, f) ->
      paren (lvl > 0) (fun ppf ->
          Format.fprintf ppf "exists %s.@ %a" x (pp_prec 0) f)
  | Forall (x, f) ->
      paren (lvl > 0) (fun ppf ->
          Format.fprintf ppf "forall %s.@ %a" x (pp_prec 0) f)
  | CountGe (t, x, f) ->
      paren (lvl > 0) (fun ppf ->
          Format.fprintf ppf "atleast %d %s.@ %a" t x (pp_prec 0) f)

let pp ppf f =
  Format.pp_open_hvbox ppf 0;
  pp_prec 0 ppf f;
  Format.pp_close_box ppf ()

(* what [pp] prints for [f] when it starts at column [col] of a fresh
   formatter, without the [col] leading blanks *)
let at col f =
  let s = Format.asprintf "%s%a" (String.make col ' ') pp f in
  String.sub s col (String.length s - col)
