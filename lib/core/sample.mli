(** Training sequences [Λ ∈ (V(G)^k × {0,1})^m] and example generators.

    The learning problems of Section 3 consume a sequence of labelled
    [k]-tuples over the background graph.  This module provides the
    sequence type, realisable labelling by a hidden target query, label
    noise, and the bookkeeping ([err_Λ], positives/negatives) shared by
    every ERM solver. *)

open Cgraph

type example = Graph.Tuple.t * bool
(** One labelled example [(v̄, λ)]. *)

type t = example list
(** A training sequence [Λ]; order is irrelevant to every algorithm but
    preserved. *)

val size : t -> int

val positives : t -> Graph.Tuple.t list
(** [Λ⁺]: tuples labelled 1, in sequence order. *)

val negatives : t -> Graph.Tuple.t list
(** [Λ⁻]: tuples labelled 0, in sequence order. *)

val arity : t -> int option
(** Common arity [k] of the examples; [None] for an empty sequence.
    @raise Invalid_argument if examples disagree on arity. *)

val error_of : (Graph.Tuple.t -> bool) -> t -> float
(** Training error [err_Λ(h)]: fraction of misclassified examples
    (0 on the empty sequence). *)

val errors_of : (Graph.Tuple.t -> bool) -> t -> int
(** Absolute number of misclassified examples. *)

(** {1 Generators} *)

val all_tuples : Graph.t -> k:int -> Graph.Tuple.t list
(** Every [k]-tuple over the graph. *)

val random_tuples : seed:int -> Graph.t -> k:int -> m:int -> Graph.Tuple.t list
(** [m] tuples drawn uniformly (with replacement). *)

val label_with :
  Graph.t -> target:(Graph.Tuple.t -> bool) -> Graph.Tuple.t list -> t
(** Realisable labelling by a target predicate. *)

val label_with_query :
  Graph.t ->
  formula:Fo.Formula.t ->
  xvars:Fo.Formula.var list ->
  ?yvars:Fo.Formula.var list ->
  ?params:Graph.Tuple.t ->
  Graph.Tuple.t list ->
  t
(** Realisable labelling by the query [φ(x̄; ȳ)] with parameters [w̄]:
    label 1 iff [G |= φ(v̄; w̄)]. *)

val is_probability : float -> bool
(** Is [p] a probability, [0 <= p <= 1]? *)

val flip_noise : seed:int -> p:float -> t -> t
(** Independently flip each label with probability [p] (agnostic-setting
    workloads).
    @raise Invalid_argument unless {!is_probability} [p]. *)

val split : seed:int -> ratio:float -> t -> t * t
(** Random train/test split; [ratio] is the training fraction.
    @raise Invalid_argument unless [0 <= ratio <= 1]. *)

val kfold : seed:int -> k:int -> t -> (t * t) list
(** [k] (train, validation) folds of a random permutation; every example
    appears in exactly one validation fold.
    @raise Invalid_argument unless [1 <= k <= size]. *)

val pp : Format.formatter -> t -> unit
