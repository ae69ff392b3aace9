(** The candidate sweep: the one loop behind the exact solvers
    {!Erm_brute} (Prop 11 / Algorithm 1), {!Erm_counting} (its counting
    extension) and {!Erm_local} (the small-degree local learner).

    Each enumerates parameter tuples [w̄] of a candidate space, and for
    each [w̄] takes the best hypothesis with parameters [w̄]: the
    majority vote per type class of [v̄·w̄].  They differ only in the
    type function ([tp_q], [ctp_q^tmax] or [ltp_{q,r}]) and in the
    candidate space ([V^ℓ], or the tuples of length [<= ℓ] over a
    pool).

    {b Determinism.}  The winner is the lexicographic minimum of
    (errors, candidate index).  That is the sequential first-best rule,
    and — being a minimum — it does not depend on how parallel chunks
    merge, so the result is bit-identical at every pool size.

    {b Resume.}  A checkpoint controller ({!Resil.Ctl}) sees every
    settled index range.  On resume, candidates below the snapshot
    cursor are replay-skipped: ticked and counted, so the telemetry of
    a resumed run equals an uninterrupted one, but not re-evaluated,
    except the recorded best index.

    {b Salvage.}  Under an exhausted budget the best candidate that
    finished evaluating is returned with its empirical error, or
    nothing if none did. *)

open Cgraph

type result = {
  hypothesis : Hypothesis.t;
  err : float;  (** the optimal training error [ε*] over the space *)
  params_tried : int;  (** candidates enumerated *)
}

val majority :
  (Graph.Tuple.t -> 'ty) -> params:Graph.Tuple.t -> Sample.t -> 'ty list * int
(** [majority typ ~params lam]: the types voted positive (more positive
    than negative examples of [lam] in the class of [typ (v̄·w̄)]) and
    the number of errors of that choice. *)

type 'ty typer = {
  context : Graph.t -> Graph.Tuple.t -> 'ty;
      (** a type function over a fresh type context; a sweep makes one
          per chunk, as contexts are not shared between domains *)
  hypothesis :
    Graph.t -> k:int -> types:'ty list -> params:Graph.Tuple.t -> Hypothesis.t;
      (** the hypothesis accepting exactly the given types *)
}

type space
(** An indexed candidate space of parameter tuples. *)

val tuples : n:int -> ell:int -> space
(** [V^ℓ] for [|V| = n], in lexicographic order. *)

val up_to : int array -> ell:int -> space
(** The tuples of length [0..ℓ] over a vertex pool, shortest first. *)

type t
(** One sweep: a typer, a candidate space, a graph and a sample. *)

val make :
  solver:Analysis.Plan.solver ->
  ?tmax:int ->
  ?radius:int ->
  'ty typer ->
  (unit -> space) ->
  Graph.t ->
  k:int ->
  ell:int ->
  q:int ->
  Sample.t ->
  t
(** [solver] names the spans ([erm_<solver>.solve]) and diagnostics and
    picks the {!Analysis.Plan} envelope of the admission precheck.  The
    space is built under the budget, after the preconditions
    ({!Analysis.Guard.budgets} and {!Analysis.Guard.sample_arity}) have
    passed. *)

val solve : ?pool:Par.Pool.t -> t -> result
(** The sweep.  [pool] (default {!Par.default}) sweeps the candidates in
    parallel chunks; a space whose size does not fit an int is streamed
    sequentially.
    @raise Invalid_argument if a precondition fails. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?pool:Par.Pool.t ->
  ?ckpt:Resil.Ctl.t ->
  t ->
  result Guard.outcome
(** {!solve} under a resource budget.  [Complete r] is exactly the
    unbudgeted result; [Exhausted] carries the salvaged best so far.

    [ckpt] (default inert) reports settled candidate ranges for cadence
    snapshots and replay-skips candidates below the resume cursor.

    [precheck] (default [true]) runs the static admission precheck of
    {!Analysis.Plan} first: if the declared budget is provably below the
    sound lower bound for settling even one candidate, the call returns
    [Exhausted] at once, with zero fuel burnt.  Checkpointed runs skip
    it, so a resume replays bit-identically. *)

val admit :
  ?budget:Guard.Budget.t -> enabled:bool -> t -> 'a Guard.outcome option
(** The admission precheck alone: [Some] rejection when the budget is
    provably too small (for a fleet coordinator, before any fork). *)

val for_params : t -> params:Graph.Tuple.t -> result
(** The best hypothesis for one fixed parameter tuple. *)

val winner : t -> int option -> result
(** The hypothesis of a candidate index, re-evaluated with a fresh
    context as a fleet coordinator recovers its merged winner; [None]
    (no candidate settled) gives the constant fallback.  [params_tried]
    is [1], resp. [0]. *)

val eval_range : t -> lo:int -> hi:int -> (int * int) option
(** One standalone slice of the sweep, for an out-of-process fleet
    worker: the [(index, errors)] lex-min over candidates [\[lo, hi)],
    with a fresh type context and the same per-candidate tick and
    counters as {!solve}. *)
