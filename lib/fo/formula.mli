(** First-order formulas over vocabularies of vertex-coloured graphs.

    The vocabulary [tau = {E, P_1, ..., P_c}] has one binary relation [E]
    and unary colour predicates, matching {!Cgraph.Graph}.  Equality is a
    logical symbol.  Quantifier rank, free variables, and the normal-form
    conventions follow Section 2 of the paper. *)

type var = string
(** Variable names. *)

(** Atomic formulas. *)
type atom =
  | Eq of var * var  (** [x = y] *)
  | Edge of var * var  (** [E(x, y)] *)
  | Color of string * var  (** [P(x)] for a colour [P] *)

(** Formulas.  [And]/[Or] are n-ary (flattened by the smart constructors);
    an empty conjunction is [True], an empty disjunction is [False]. *)
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
      (** counting quantifier [∃^{>=t} x. φ] — the FOC extension proposed
          in the paper's conclusion (cf. van Bergerem, LICS 2019).
          [Exists] is [CountGe 1] semantically; both are kept for
          faithful plain-FO quantifier ranks. *)

(** {1 Smart constructors}

    These perform local simplification (unit laws, flattening, double
    negation) so that mechanically built formulas — Hintikka formulas in
    particular — stay readable. *)

val tru : t
val fls : t
val eq : var -> var -> t
val edge : var -> var -> t
val color : string -> var -> t
val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t
val implies : t -> t -> t
val iff : t -> t -> t
val exists : var -> t -> t
val forall : var -> t -> t
val exists_many : var list -> t -> t
val forall_many : var list -> t -> t

val count_ge : int -> var -> t -> t
(** [count_ge t x f] is [∃^{>=t} x. f]; simplifies the trivial thresholds
    ([t = 0] gives [true], [f = False] with [t >= 1] gives [false]). *)

(** {1 Inspection} *)

val quantifier_rank : t -> int
(** Maximum nesting depth of quantifiers. *)

val free_vars : t -> var list
(** Free variables, sorted, without duplicates. *)

val all_vars : t -> var list
(** Free and bound variables, sorted, without duplicates. *)

val colors_used : t -> string list
(** Colour predicates occurring in the formula, sorted. *)

val size : t -> int
(** Number of connective/atom nodes. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Transformation} *)

val rename : (var -> var) -> t -> t
(** Apply a renaming to the {e free} variables.  The renaming is applied
    capture-avoidingly: bound variables are refreshed when they collide
    with an image of the renaming. *)

val substitute : (var * var) list -> t -> t
(** Parallel free-variable substitution [x := y] given as an association
    list; variables not listed are unchanged. *)

val map_atoms : (atom -> t) -> t -> t
(** Replace every atom by a formula (used by the hardness reduction to
    rewrite [x = y ↦ P_t(y)], [E(x,y) ↦ Q_t(y)], and [P_i(z) ↦ False]). *)

val nnf : t -> t
(** Negation normal form; eliminates [Implies]/[Iff]. *)

val simplify : t -> t
(** Bottom-up constant folding and de-duplication of juncts.  Preserves
    logical equivalence and never increases the quantifier rank. *)

val fresh_var : avoid:var list -> string -> var
(** [fresh_var ~avoid base] is a variable named like [base] that avoids
    the given names. *)

(** {1 Printing}

    Layout contract: the bytes are those [Format] prints for one hvbox
    around the whole formula and one around each [And]/[Or] list, at
    margin 78 and max-indent 68, with every other break (after a
    quantifier's dot) belonging to the innermost enclosing box.  A box
    is laid out flat iff its flat width is strictly less than the space
    left where it opens; a broken box turns each of its breaks into a
    newline indented to the column where the box opened; a box opened
    past column 68 inside a broken box first breaks to that box's
    indent (its fit test still uses the space left before that
    break).  The output is the concrete syntax accepted by
    {!Parser.parse}. *)

val render : ?col:int -> (string -> unit) -> t -> unit
(** [render ~col emit f] lays [f] out as if it started at column [col]
    (default 0, at most 68) and passes the bytes to [emit] in order, in
    chunks of at most 64 KiB, so the text is never held whole.
    @raise Invalid_argument if [col] is outside [0..68]. *)

val pp : Format.formatter -> t -> unit
(** [render] with column-0 layout into a formatter, whatever the
    formatter's own column: the chunks go to it as opaque text, so the
    formatter's boxes and margin do not reflow them.  A caller printing
    at another column passes [render ~col (Format.pp_print_string ppf)]
    instead. *)

val to_string : t -> string
(** The bytes of [render] with column-0 layout. *)
