(** Canonical counting types — the FOC extension proposed in the paper's
    conclusion (first-order logic with counting quantifiers
    [∃^{>=t} x. φ]; cf. van Bergerem, LICS 2019).

    The counting [q]-type with threshold cap [tmax] of a tuple records the
    atomic signature together with, for each distinct counting
    [(q-1)]-type of the one-point extensions, {e how many} extensions
    realise it — capped at [tmax]:

    {v ctp_q^tmax(G, ū) ~ (atp(G, ū), { θ ↦ min(tmax, #w with ctp(ūw)=θ) }) v}

    Two tuples get the same id iff they satisfy the same FOC formulas of
    quantifier rank [q] whose thresholds are at most [tmax].  At
    [tmax = 1] counting types coincide with the plain types of {!Types}
    (multiplicity collapses to membership — tested in the suite). *)

open Cgraph

type ty = private int
(** Canonical counting-type id (separate id space from {!Types.ty}). *)

val equal : ty -> ty -> bool
val compare : ty -> ty -> int
val hash : ty -> int
val pp : Format.formatter -> ty -> unit

val rank : ty -> int
val arity : ty -> int

type ctx

val make_ctx : Graph.t -> ctx

val ctp : ctx -> q:int -> tmax:int -> Graph.Tuple.t -> ty
(** [ctp ctx ~q ~tmax ū]: the counting [q]-type with thresholds up to
    [tmax].  Memoised per context.  @raise Invalid_argument if
    [tmax < 1]. *)

val cltp : ctx -> q:int -> tmax:int -> r:int -> Graph.Tuple.t -> ty
(** Local counting type: [ctp] computed in the induced [r]-neighbourhood
    of the tuple. *)

val partition : ctx -> q:int -> tmax:int -> Graph.Tuple.t list -> (ty * Graph.Tuple.t list) list
(** Group tuples by counting type (first-occurrence class order). *)

val count_types : Graph.t -> q:int -> tmax:int -> k:int -> int
(** Number of distinct counting types of [k]-tuples realised. *)

val node : ty -> Types.atomsig * (ty * int) list option
(** Decompose: atomic signature, and [None] (rank 0) or the sorted list of
    (child counting type, capped multiplicity) pairs. *)

val hintikka :
  ?vars:Fo.Formula.var list ->
  colors:string list ->
  tmax:int ->
  ty ->
  Fo.Formula.t
(** The counting Hintikka formula of a type: for every graph [H] over a
    sub-vocabulary of [colors] and tuple [v̄],
    [H |= hintikka θ (v̄)  iff  ctp(H, v̄) = θ].  Uses [atleast]
    quantifiers; quantifier rank is exactly the rank of the type.  Free
    variables as in {!Hintikka.of_type}; each distinct child type is
    built once and shared, and children are listed in content order
    ({!Hintikka.content_key}). *)

val content_order : ty list -> ty list
(** {!Hintikka.by_content} with a fresh key over counting types: the
    order a hypothesis lists its disjuncts in. *)

(** {1 Registry lifecycle} *)

type table_stats = { live : int  (** interned types *); bytes : int }

val table_stats : unit -> table_stats
(** Registry size; [bytes] matches the [modelcheck.ctypes.table_bytes]
    gauge. *)

val reset_tables : unit -> unit
(** Empty the registry and invalidate all per-domain shards; see
    {!Types.reset_tables} for the quiescence contract. *)
