(* A fixed-size domain pool with index-ordered reduction.  See the .mli
   for the determinism contract; the implementation notes here cover the
   synchronisation argument.

   One [run] publishes a "job": a claim-loop closure over an atomic
   next-task counter.  Workers park on [have_work] between jobs; the
   caller participates in its own job, then waits on [work_done] until
   the completion counter reaches [tasks].  Every task index is claimed
   exactly once ([Atomic.fetch_and_add]), and a worker registers itself
   in [active] (under the pool mutex) before it can claim anything, so
   [completed < tasks] implies a registered worker still holds a task
   and will broadcast when it finishes.  Result visibility: a task's
   plain writes happen before its [completed] increment (atomic), and
   the caller reads [completed = tasks] before touching results, so all
   writes are visible by the usual release/acquire argument. *)

(* per-domain attribution: tasks executed by each pool slot (slot 0 is
   the calling domain), plus one span per parallel region *)
let slot_counter slot =
  Obs.Metric.counter (Printf.sprintf "par.tasks.slot%d" slot)

module Pool = struct
  type t = {
    size : int;
    requested : int;  (* [jobs] as asked for, before the core-count cap *)
    m : Mutex.t;
    have_work : Condition.t;
    work_done : Condition.t;
    mutable epoch : int;
    mutable job : (slot:int -> unit) option;
    mutable active : int;
    mutable stopping : bool;
    mutable spawned : bool;
    mutable domains : unit Domain.t list;
    slot_counters : Obs.Metric.counter array;
  }

  let create ~jobs =
    let size = max 1 (min jobs (Domain.recommended_domain_count ())) in
    {
      size;
      requested = max 1 jobs;
      m = Mutex.create ();
      have_work = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      job = None;
      active = 0;
      stopping = false;
      spawned = false;
      domains = [];
      slot_counters = Array.init size slot_counter;
    }

  let size t = t.size
  let parallel t = t.requested > 1

  let rec worker_loop t ~slot last_epoch =
    Mutex.lock t.m;
    while (not t.stopping) && (t.epoch = last_epoch || t.job = None) do
      Condition.wait t.have_work t.m
    done;
    if t.stopping then Mutex.unlock t.m
    else begin
      let epoch = t.epoch in
      let job = Option.get t.job in
      t.active <- t.active + 1;
      Mutex.unlock t.m;
      (try job ~slot with _ -> () (* jobs catch their own exceptions *));
      Mutex.lock t.m;
      t.active <- t.active - 1;
      Condition.broadcast t.work_done;
      Mutex.unlock t.m;
      worker_loop t ~slot epoch
    end

  let ensure_spawned t =
    if not t.spawned then begin
      t.spawned <- true;
      t.domains <-
        List.init (t.size - 1) (fun i ->
            Domain.spawn (fun () ->
                (* register this domain's metric shard before any timed
                   work so the first in-task [incr] is just a store *)
                Obs.Metric.prewarm ();
                worker_loop t ~slot:(i + 1) t.epoch))
    end

  let shutdown t =
    Mutex.lock t.m;
    t.stopping <- true;
    Condition.broadcast t.have_work;
    Mutex.unlock t.m;
    let ds = t.domains in
    t.domains <- [];
    List.iter Domain.join ds

  (* Publish [claim] to the workers, run it on the caller too, and wait
     until [completed] says every task has settled. *)
  let drive t ~tasks ~(claim : slot:int -> unit) ~(completed : int Atomic.t) =
    ensure_spawned t;
    Mutex.lock t.m;
    t.job <- Some claim;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.have_work;
    Mutex.unlock t.m;
    claim ~slot:0;
    Mutex.lock t.m;
    while Atomic.get completed < tasks do
      Condition.wait t.work_done t.m
    done;
    t.job <- None;
    Mutex.unlock t.m
end

(* ------------------------------------------------------------------ *)
(* Default pool configuration                                          *)
(* ------------------------------------------------------------------ *)

let env_jobs () =
  match Sys.getenv_opt "FOLEARN_JOBS" with
  | None -> 1
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)

let configured_jobs = ref None
let default_pool = ref None
let at_exit_registered = ref false

let jobs () =
  match !configured_jobs with Some n -> n | None -> env_jobs ()

let shutdown_default () =
  match !default_pool with
  | None -> ()
  | Some p ->
      default_pool := None;
      Pool.shutdown p

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: jobs must be >= 1";
  configured_jobs := Some n;
  shutdown_default ()

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = Pool.create ~jobs:(jobs ()) in
      default_pool := Some p;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit shutdown_default
      end;
      p

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                     *)
(* ------------------------------------------------------------------ *)

(* A worker exception poisons only its own task: the task is re-queued
   and retried (bounded attempts, preferring a different slot) before
   its failure becomes final.  Exceptions that are deterministic by
   construction — programmer errors, and anything a subsystem registers
   via [register_no_retry] (Guard's internal stop signal) — skip the
   retries: re-running them is pure waste, and for Guard it would
   perturb deterministic fault accounting. *)

let max_attempts = 3

let no_retry_predicates : (exn -> bool) list ref = ref []
let register_no_retry p = no_retry_predicates := p :: !no_retry_predicates

let non_retryable e =
  (match e with
  | Invalid_argument _ | Assert_failure _ | Match_failure _ | Not_found
  | Out_of_memory | Stack_overflow ->
      true
  | _ -> false)
  || List.exists (fun p -> p e) !no_retry_predicates

let task_retries = Obs.Metric.counter "par.task_retries"

let record_retry ~task ~attempt ~slot e =
  Obs.Metric.incr task_retries;
  Obs.Event.record ~kind:"par"
    ~args:
      [
        ("task", string_of_int task);
        ("attempt", string_of_int attempt);
        ("slot", string_of_int slot);
        ("exn", Printexc.to_string e);
      ]
    "par.retry"

let run (t : Pool.t) ~tasks f =
  (* the span follows the jobs asked for, not the pool size the host's
     cores allow, so a run records the same events on every host *)
  let span body =
    if Pool.parallel t then
      Obs.Span.with_ "par.run"
        ~args:
          [ ("jobs", string_of_int t.Pool.size);
            ("tasks", string_of_int tasks) ]
        body
    else body ()
  in
  if tasks > 0 then
    if t.Pool.size <= 1 || tasks = 1 || t.Pool.stopping then
      (* the inline path honours the same fault-isolation contract as
         the pooled one: a retryable exception gets [max_attempts]
         tries before it propagates *)
      span @@ fun () ->
      for i = 0 to tasks - 1 do
        let rec attempt k =
          try f i
          with e when k < max_attempts && not (non_retryable e) ->
            record_retry ~task:i ~attempt:k ~slot:0 e;
            attempt (k + 1)
        in
        attempt 1
      done
    else
      span @@ fun () ->
      let next = Atomic.make 0 in
      let completed = Atomic.make 0 in
      let failure : (int * exn * Printexc.raw_backtrace) option Atomic.t =
        Atomic.make None
      in
      (* keep the lowest-indexed failure, whatever the completion order *)
      let rec record_failure i e bt =
        match Atomic.get failure with
        | Some (j, _, _) when j <= i -> ()
        | cur ->
            if not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then
              record_failure i e bt
      in
      (* retry queue: tasks whose last attempt raised a retryable
         exception, tagged with the slot that failed so another slot
         picks them up first (best-effort: the failing slot itself
         drains its own entries once fresh indices run out, so progress
         never depends on a second live worker). *)
      let retry_m = Mutex.create () in
      let retries :
          (int * int * int * exn * Printexc.raw_backtrace) list ref =
        ref []
      in
      let push_retry entry =
        Mutex.lock retry_m;
        retries := entry :: !retries;
        Mutex.unlock retry_m
      in
      let take_retry ~slot ~any =
        Mutex.lock retry_m;
        let rec pick acc = function
          | [] -> None
          | ((_, _, s, _, _) as r) :: rest when any || s <> slot ->
              retries := List.rev_append acc rest;
              Some r
          | r :: rest -> pick (r :: acc) rest
        in
        let r = pick [] !retries in
        Mutex.unlock retry_m;
        r
      in
      let executed = Array.make t.Pool.size 0 in
      (* run attempt [attempt] of task [i]; settles the task (bumps
         [completed]) unless it was re-queued for another try *)
      let exec ~slot i attempt last_exn =
        let settle () = ignore (Atomic.fetch_and_add completed 1) in
        if Atomic.get failure <> None then begin
          (* after a final failure, drain without running: the run's
             result is that failure anyway — but a task that already
             raised must still be recorded, or a transient fault at a
             low index could be masked by a final failure at a higher
             one *)
          (match last_exn with
          | Some (e, bt) -> record_failure i e bt
          | None -> ());
          settle ()
        end
        else
          match f i with
          | () ->
              executed.(slot) <- executed.(slot) + 1;
              settle ()
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              executed.(slot) <- executed.(slot) + 1;
              if attempt >= max_attempts || non_retryable e then begin
                record_failure i e bt;
                settle ()
              end
              else begin
                record_retry ~task:i ~attempt ~slot e;
                push_retry (i, attempt + 1, slot, e, bt)
              end
      in
      let claim ~slot =
        let continue = ref true in
        while !continue do
          match take_retry ~slot ~any:false with
          | Some (i, attempt, _, e, bt) -> exec ~slot i attempt (Some (e, bt))
          | None -> (
              let i = Atomic.fetch_and_add next 1 in
              if i < tasks then exec ~slot i 1 None
              else
                (* fresh work is gone; drain retries banned for this
                   slot too, then exit *)
                match take_retry ~slot ~any:true with
                | Some (i, attempt, _, e, bt) ->
                    exec ~slot i attempt (Some (e, bt))
                | None -> continue := false)
        done;
        if executed.(slot) > 0 && Obs.Sink.enabled () then
          Obs.Metric.add t.Pool.slot_counters.(slot) executed.(slot)
      in
      Pool.drive t ~tasks ~claim ~completed;
      match Atomic.get failure with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()

let map_tasks t ~tasks f =
  if tasks = 0 then [||]
  else begin
    let results = Array.make tasks None in
    run t ~tasks (fun i -> results.(i) <- Some (f i));
    Array.map
      (function Some v -> v | None -> assert false (* run raised *))
      results
  end

let map_list t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let arr = Array.of_list xs in
      Array.to_list (map_tasks t ~tasks:(Array.length arr) (fun i -> f arr.(i)))

let map_reduce_chunks t ~n ?chunk ~map ~reduce ~init () =
  if n <= 0 then init
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Par.map_reduce_chunks: chunk must be >= 1"
      | None -> max 1 (n / (4 * Pool.size t))
    in
    let tasks = (n + chunk - 1) / chunk in
    let pieces =
      map_tasks t ~tasks (fun c ->
          let lo = c * chunk in
          map lo (min n (lo + chunk)))
    in
    Array.fold_left reduce init pieces
  end
