(** Deterministic domain-parallelism for the ERM solvers.

    A fixed-size pool of OCaml 5 [Domain]s executes chunked [map]/[fold]
    work lists.  The design invariant — relied on by every caller in
    [lib/core] — is that the {e observable result} of a parallel run is
    bit-identical to the sequential one:

    - tasks are identified by a dense index [0 .. tasks-1];
    - results are stored by index and reduced {b in index order}, never
      in completion order, so the streaming enumerators' first-best
      tie-breaking ("keep the earliest candidate on equal error") is
      preserved;
    - if several tasks raise, the exception of the {e lowest-indexed}
      failing task is re-raised after all in-flight tasks have settled —
      matching the sequential run, where the earliest failure wins.

    A pool of size 1 spawns no domains and runs every combinator inline;
    its overhead over a plain loop is a bounds check per task.

    Workers are spawned lazily on first use and parked on a condition
    variable between calls, so an idle pool costs nothing.  Nested
    [run]s on one pool are not supported (the solvers never nest);
    create a second pool if you need one inside a task. *)

module Pool : sig
  type t

  val create : jobs:int -> t
  (** A pool executing at most [jobs] tasks concurrently ([jobs - 1]
      worker domains plus the calling domain).  [jobs] is clamped to
      [\[1; Domain.recommended_domain_count ()\]].  Workers are spawned
      on the first parallel call, not here. *)

  val size : t -> int
  (** The parallelism degree (including the caller). *)

  val parallel : t -> bool
  (** Were more than one job asked for?  The solvers pick their chunked
      parallel sweep on this, not on {!size}, and {!run} opens its
      [par.run] span on it, so what a run does and records is the same
      whether or not the host's cores allow the jobs: a capped pool runs
      the same chunks inline. *)

  val shutdown : t -> unit
  (** Join the worker domains.  Idempotent; the pool degrades to
      sequential (size-1 semantics) afterwards. *)
end

val set_jobs : int -> unit
(** Configure the default pool size (the CLI's [--jobs]).  Replaces the
    default pool; the previous one is shut down. *)

val jobs : unit -> int
(** Current default pool size: the last [set_jobs] value, else the
    [FOLEARN_JOBS] environment variable, else [1]. *)

val default : unit -> Pool.t
(** The process-wide default pool, sized by {!jobs}.  Shut down
    automatically at exit. *)

val run : Pool.t -> tasks:int -> (int -> unit) -> unit
(** [run pool ~tasks f] executes [f 0 .. f (tasks-1)], work-stealing
    across the pool.  Returns when every task has settled.

    {b Fault isolation.}  A worker exception poisons only its own
    task: the task is re-queued and retried (three attempts in total),
    preferring a slot other than the one that failed — best-effort;
    with a single live worker the failing slot retries its own task,
    so progress never depends on a second worker.  A task still
    failing after its last attempt makes the run fail: remaining tasks
    are drained without running, and the exception of the
    {e lowest-indexed} finally-failing task is re-raised {b with the
    worker's original backtrace}
    ({!Printexc.raise_with_backtrace}) — matching the sequential run,
    where the earliest failure wins.  Deterministic exceptions
    ([Invalid_argument], [Assert_failure], [Match_failure],
    [Not_found], [Out_of_memory], [Stack_overflow], and anything
    registered via {!register_no_retry}) are never retried.

    Retries re-run the whole task, so a task that both mutates shared
    state and raises transiently may over-count side effects (the
    solvers' tasks only publish results at the end, so their outputs
    are unaffected).  A size-1 pool runs inline on the caller but
    honours the same contract: retryable exceptions get the same
    bounded attempts before propagating, so fault behaviour does not
    depend on the pool size. *)

val register_no_retry : (exn -> bool) -> unit
(** Mark an exception class as not-a-fault: {!run} fails the task on
    first raise instead of retrying.  Used by [Guard] for its internal
    stop signal (a budget trip is control flow, not a crash). *)

val non_retryable : exn -> bool
(** The pool's transient-vs-deterministic classification: true for the
    programmer-error class above and everything registered via
    {!register_no_retry}.  Exported so [folearn.fleet] applies the
    {e same} policy across processes that {!run} applies across
    domains — a deterministic chunk failure goes to quarantine instead
    of burning retries. *)

val map_tasks : Pool.t -> tasks:int -> (int -> 'a) -> 'a array
(** Like {!run}, collecting results in index order. *)

val map_list : Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f xs] is [List.map f xs], order preserved. *)

val map_reduce_chunks :
  Pool.t ->
  n:int ->
  ?chunk:int ->
  map:(int -> int -> 'a) ->
  reduce:('acc -> 'a -> 'acc) ->
  init:'acc ->
  unit ->
  'acc
(** [map_reduce_chunks pool ~n ~map ~reduce ~init ()] splits the index
    range [0..n-1] into contiguous chunks, evaluates [map lo hi] (hi
    exclusive) for each in parallel, then folds the chunk results with
    [reduce] {b sequentially, in chunk order} on the calling domain.
    [chunk] defaults to [n / (4 * size)] (at least 1): about four chunks
    per worker for load balance. *)
