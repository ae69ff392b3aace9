(** The one implementation of the [learn], [mc], [types] and [game]
    ops.

    The CLI builds a {!request} from its flags and calls {!run} with the
    process streams; the resident service builds one from a JSON
    parameter object ({!request_of_json}) and {!run_op} runs it into
    buffers.  Both therefore print the same bytes and exit with the same
    code taxonomy: 0 complete, 2 usage, 3 degraded (or interrupted), 4
    exhausted.

    JSON parameter objects (all members optional unless noted):
    - [learn]: [graph] (spec string, required), [colors] (list of
      [NAME=v,v] strings), [target] (required), [k], [ell], [q],
      [solver] (brute|nd|counting|local), [tmax], [noise], [m], [seed]
    - [mc]: [graph] (required), [colors], [formula] (required),
      [via_erm] (bool)
    - [types]: [graph] (required), [colors], [q], [k], [hintikka]
    - [game]: [graph] (required), [colors], [r] *)

val parse_graph_spec : string -> (Cgraph.Graph.t, [ `Msg of string ]) result
(** The graph-spec DSL ([path:N], [grid:WxH], [gnp:N:P:SEED],
    [file:PATH], ...); shared so server and CLI accept exactly the
    same specs. *)

val parse_color : string -> (string * int list, [ `Msg of string ]) result

val parse_formula :
  cmd:string -> flag:string -> string -> (Fo.Formula.t, string) result
(** Parse a formula argument; [Error] is the usage message, naming
    [cmd] and [flag], with the parser's line/column diagnostics. *)

(** {1 Requests} *)

type solver = [ `Brute | `Nd | `Counting | `Local ]

val solvers : (string * solver) list
(** The [--solver] / ["solver"] names. *)

val plan_solver : solver -> Analysis.Plan.solver

type learn_p = {
  lp_g : Cgraph.Graph.t;  (** coloured *)
  lp_target : Fo.Formula.t;
  lp_k : int;
  lp_ell : int;
  lp_q : int;
  lp_solver : solver;
  lp_tmax : int;
  lp_noise : float;
  lp_m : int;
  lp_seed : int;
}

(** A learn with its training data built. *)
type prepared = {
  p : learn_p;
  tuples : Cgraph.Graph.Tuple.t list;  (** the example tuples *)
  lam : Folearn.Sample.t;  (** the tuples labelled by the target *)
}

val check_target :
  cmd:string -> Cgraph.Graph.t -> k:int -> Fo.Formula.t -> (unit, string) result
(** Is the target a query over [x1..xk] in the graph's vocabulary?
    [Error] is the usage message listing the diagnostics. *)

val sample_tuples :
  Cgraph.Graph.t -> k:int -> m:int -> seed:int -> Cgraph.Graph.Tuple.t list
(** The example tuples: all [k]-tuples when [m = 0], else [m] random
    ones drawn with [seed]. *)

val check_params :
  cmd:string ->
  Cgraph.Graph.t ->
  k:int ->
  ell:int ->
  q:int ->
  solver:solver ->
  tmax:int ->
  noise:float ->
  (unit, string) result
(** Are the learn parameters ones the solver can run?  The budgets of
    {!Analysis.Guard.budgets} ([tmax] for counting only), a label-flip
    probability in [\[0, 1\]], and [k + ell + q] within the arity the
    graph's atomic-type coder can pack.  [Error] is the usage
    message. *)

val prepare : learn_p -> (prepared, string) result
(** Validate the target ({!check_target}) and the parameters
    ({!check_params}), build the example tuples
    ({!sample_tuples}) and label them, flipping labels with probability
    [lp_noise].  Depends on [learn_p] alone, so fleet workers rebuild
    exactly the coordinator's sample. *)

type request =
  | Learn of prepared
  | Mc of { g : Cgraph.Graph.t; phi : Fo.Formula.t; via_erm : bool }
  | Types of { g : Cgraph.Graph.t; q : int; k : int; hintikka : bool }
  | Game of { g : Cgraph.Graph.t; r : int }

val mc :
  Cgraph.Graph.t -> Fo.Formula.t -> via_erm:bool -> (request, string) result
(** An [Mc] request; [Error] unless the formula is a sentence. *)

val request_of_json : op:string -> Obs.Json.t -> (request, string) result
(** Parse and validate a parameter object; [Error] is the usage
    message. *)

val run_id : request -> string
(** The run's deterministic digest: it keys snapshots and server-side
    jobs. *)

val solver_name : request -> string
(** The solver a snapshot records: the learn solver's name, or the op
    name. *)

(** {1 Running} *)

val exit_degraded : int
val exit_exhausted : int

val exhausted_exit : Guard.reason -> salvaged:bool -> int
(** 3 when something was salvaged or the run was interrupted (the
    operator asked for the stop), 4 otherwise. *)

val report_exhausted :
  err:Format.formatter ->
  cmd:string ->
  reason:Guard.reason ->
  checkpoint:Guard.checkpoint ->
  spent:Guard.spent ->
  unit
(** The one-line exhaustion report, then a flight-recorder dump (a
    no-op unless one is attached). *)

val run :
  out:Format.formatter ->
  err:Format.formatter ->
  ?budget:Guard.Budget.t ->
  ckpt:Resil.Ctl.t ->
  precheck:bool ->
  request ->
  int
(** Execute one op, printing its report to [out] and diagnostics to
    [err]; returns the exit code.  [precheck] gates the static
    admission precheck of the budgeted solvers.  A local learn
    degrades ({!Folearn.Degrade}) only under a budget with a declared
    limit and an inactive [ckpt]: an unlimited budget has nothing to
    degrade under, and a checkpointed run must resume bit-identically.
    Must be called from at most one domain at a time: solvers share
    the default [Par] pool and the ambient [Guard] budget. *)

val report_sample : out:Format.formatter -> prepared -> unit
(** The first line of every learn report: the sample's size and
    positives. *)

val sweep : prepared -> Folearn.Sweep.t
(** The candidate sweep of a brute or counting learn (the fleet's unit
    of work). *)

val print_sweep_winner :
  out:Format.formatter -> prepared -> params_tried:int -> int option -> unit
(** The brute/counting report for the candidate at this index of the
    parameter sweep, re-evaluated with a fresh context as a full-skip
    resume does, or for the constant-false hypothesis when no candidate
    settled.  The fleet coordinator prints its merged winner with it. *)

(** {1 The service's entry points} *)

type run = {
  code : int;  (** 0 complete / 2 usage / 3 degraded / 4 exhausted *)
  out : string;  (** captured stdout, byte-identical to the CLI's *)
  err : string;  (** captured stderr (timing fields will differ) *)
  spent : Guard.spent option;
}

val run_op :
  ?budget:Guard.Budget.t ->
  ?ckpt:Resil.Ctl.t ->
  ?precheck:bool ->
  op:string ->
  params:Obs.Json.t ->
  unit ->
  run
(** {!request_of_json} then {!run} into buffers. *)

val learn_identity :
  Obs.Json.t -> (string * string, string) result
(** [(run_id, solver_name)] of a learn parameter object — the same
    digest the CLI computes, without labelling the sample.  Used to
    key server-side jobs and their snapshots. *)

val precheck_rejection :
  op:string ->
  params:Obs.Json.t ->
  limits:Analysis.Plan.limits ->
  (Analysis.Plan.rejection option, string) result
(** Zero-fuel static admission: would this op, under these limits,
    provably exhaust before settling a first answer?  [Error] when the
    parameters are unusable (the request will fail as [usage] anyway).
    Ops without a planner model ([types], [game]) always admit. *)
