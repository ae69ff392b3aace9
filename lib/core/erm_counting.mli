(** Exact ERM over first-order logic {e with counting} — the extension the
    paper's conclusion proposes ("extend our results to richer logics …
    such as the extensions of first-order logic with counting").

    The hypothesis class [H^C_{k,ℓ,q,tmax}(G)] consists of all
    [h_{φ,w̄}] where [φ] is an FOC formula of quantifier rank [q] whose
    counting thresholds are at most [tmax].  It is the {!Sweep} over
    [V^ℓ] with counting types: for every parameter tuple, the optimal
    classifier is majority vote per counting-type class
    ({!Modelcheck.Ctypes}), and the witness formula is a disjunction of
    counting Hintikka formulas.

    Counting strictly increases expressive power at fixed rank: "degree at
    least 3" needs rank 3 in plain FO but is [∃^{>=3} y. E(x, y)] — rank 1
    — in FOC (exercised by E10 and the test suite). *)

open Cgraph

type result = Sweep.result = {
  hypothesis : Hypothesis.t;
  err : float;  (** the optimal training error over the counting class *)
  params_tried : int;
}

val sweep :
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t -> Sweep.t
(** The {!Sweep} of this solver: [ctp_q^tmax] over [V^ℓ]. *)

val solve :
  ?pool:Par.Pool.t ->
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t -> result
(** Exact counting ERM.  [pool] (default {!Par.default}) parallelises
    the candidate sweep; {!Sweep} states the determinism contract.
    @raise Invalid_argument on arity mismatch or [tmax < 1]. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?pool:Par.Pool.t ->
  ?ckpt:Resil.Ctl.t ->
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t ->
  result Guard.outcome
(** {!solve} under a resource budget; {!Sweep.solve_budgeted} states
    the salvage, [ckpt] (checkpoint/resume) and [precheck] (static
    admission) contracts. *)

val optimal_error :
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t -> float

val solve_for_params :
  Graph.t ->
  k:int ->
  q:int ->
  tmax:int ->
  params:Graph.Tuple.t ->
  Sample.t ->
  result
(** The inner loop: best counting hypothesis for one fixed parameter
    tuple; see {!Sweep.for_params}. *)

val eval_range :
  Graph.t ->
  k:int ->
  ell:int ->
  q:int ->
  tmax:int ->
  Sample.t ->
  lo:int ->
  hi:int ->
  (int * int) option
(** Standalone sweep slice over candidates [\[lo, hi)] for a fleet
    worker; see {!Sweep.eval_range}. *)
