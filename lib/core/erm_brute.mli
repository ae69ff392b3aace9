(** Exact empirical risk minimisation over [H_{k,ℓ,q}(G)]
    (Proposition 11 / Algorithm 1 of the paper).

    For every parameter tuple [w̄ ∈ V(G)^ℓ] (the [n^ℓ] factor of the
    proposition), the best quantifier-rank-[q] formula classifies examples
    by their [q]-type class of [v̄·w̄] (Corollary 6); the optimum for fixed
    [w̄] is therefore majority vote per type class.  This replaces
    Algorithm 1's "for all φ' ∈ Φ'" loop over the (tower-sized) normal-form
    catalogue by an equivalent exact computation — the substitution
    documented in DESIGN.md §5 — and returns a genuine witness formula
    (Hintikka disjunction) of quantifier rank [q].

    The result is an {e exact} minimiser: [err_Λ = ε*], not just
    [ε* + ε]. *)

open Cgraph

type result = Sweep.result = {
  hypothesis : Hypothesis.t;
  err : float;  (** the optimal training error [ε*] *)
  params_tried : int;  (** [n^ℓ], for the complexity experiments *)
}

val sweep : Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> Sweep.t
(** The {!Sweep} of this solver: [tp_q] over the candidate space
    [V^ℓ]. *)

val solve :
  ?pool:Par.Pool.t -> Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> result
(** Exact ERM.  Cost [O(n^ℓ · m)] type computations of rank [q] on
    [(k+ℓ)]-tuples.  [pool] (default {!Par.default}) sweeps the [n^ℓ]
    candidate tuples in parallel chunks with the result bit-identical
    to the sequential sweep (see {!Sweep}).
    @raise Invalid_argument if an example has arity other than [k]. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?pool:Par.Pool.t ->
  ?ckpt:Resil.Ctl.t ->
  Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> result Guard.outcome
(** {!solve} under a resource budget; see {!Sweep.solve_budgeted}.  On
    exhaustion, [best_so_far] is the best hypothesis among the
    candidates that finished evaluating (with its empirical error), or
    [None] if none did — still a sound hypothesis under the agnostic
    semantics, only without the min-error certificate.  Pass
    [~precheck:false] (the CLI's [--no-precheck]) to always burn real
    fuel. *)

val optimal_error : Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> float
(** Just [ε* = min_{h ∈ H_{k,ℓ,q}} err_Λ(h)]. *)

val solve_for_params :
  Graph.t -> k:int -> q:int -> params:Graph.Tuple.t -> Sample.t -> result
(** The inner loop: best hypothesis for one fixed parameter tuple. *)

val eval_range :
  Graph.t ->
  k:int ->
  ell:int ->
  q:int ->
  Sample.t ->
  lo:int ->
  hi:int ->
  (int * int) option
(** One standalone slice of the candidate sweep, for an out-of-process
    fleet worker; see {!Sweep.eval_range}.  The winning hypothesis is
    recovered from the returned index ({!Sweep.winner}) — the same
    mechanism a checkpoint resume uses, so the assembled result is
    bit-identical to the sequential run. *)
