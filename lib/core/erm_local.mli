(** Sublinear-time local learning — the predecessor result the paper
    builds on (Grohe & Ritzert, LICS 2017: on structures of maximum
    degree [d], ERM for first-order definable hypotheses runs in time
    polynomial in [d] and the number [m] of examples, {e independently of
    the size of the background structure}).

    The engine is Gaifman locality.  A hypothesis classifies by the local
    type [ltp_{q,r}(G, v̄·w̄)].  A parameter [w] {e far} from every
    example (distance [> 2r+1]) contributes the same disconnected piece
    to every example's local type, so the classifier it induces on the
    sample is already induced by the same hypothesis with that parameter
    dropped.  Hence the optimum over all of [V(G)^ℓ] is attained with
    parameters from the pool [N_{2r+1}(examples)] and at most [ℓ] of
    them — a set whose size depends only on [d, k, m, r], not on [n].

    The solver explores exactly that pool, touching only
    [N_{3r+2}(example entries)]; {!result.vertices_touched} certifies the
    sublinear access pattern (experiment E11). *)

open Cgraph

type result = {
  hypothesis : Hypothesis.t;
  err : float;
      (** optimal training error over local-type hypotheses with up to
          [ℓ] parameters *)
  pool_size : int;  (** candidate parameters considered *)
  params_tried : int;  (** parameter tuples evaluated (≤ Σ pool^j) *)
  vertices_touched : int;
      (** distinct vertices the algorithm ever accessed — compare with
          [Graph.order g] *)
}

val solve :
  ?pool:Par.Pool.t ->
  ?radius:int -> Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> result
(** [solve g ~k ~ell ~q lam].  [radius] defaults to
    [Fo.Gaifman.radius q].  The returned error satisfies: for {e every}
    [w̄ ∈ V(G)^{ℓ'}, ℓ' <= ℓ] and every set [Θ] of local types,
    [err <= err_Λ(v̄ ↦ ltp_{q,r}(v̄·w̄) ∈ Θ)] (tested exhaustively in the
    suite).  [pool] (default {!Par.default}) sweeps the candidates in
    parallel chunks with the result bit-identical to the sequential
    sweep (see {!Sweep}).
    @raise Invalid_argument on arity mismatch. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?pool:Par.Pool.t ->
  ?radius:int ->
  ?ckpt:Resil.Ctl.t ->
  Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> result Guard.outcome
(** {!solve} under a resource budget: the {!Sweep} over the tuples of
    length [0..ℓ] of the pool, shortest first, so a candidate's index
    counts through the lengths in enumeration order.
    {!Sweep.solve_budgeted} states the salvage, [ckpt]
    (checkpoint/resume) and [precheck] (static admission) contracts;
    [best_so_far] is also [None] when the run trips while building the
    candidate pool. *)
