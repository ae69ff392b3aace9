(* folearn_cli: command-line driver for the library.

   Subcommands:
     learn   learn a first-order query from examples labelled by a target
     plan    static cost analysis of a learn run (focost)
     mc      model checking, directly or through the ERM oracle (Thm 1)
     strings MSO on strings: model checking and learning ([21])
     trees   MSO on trees: model checking and node concepts ([19])
     types   print the q-type partition of a graph
     game    play out the splitter game and print the trace
     lint    static analysis of FO/MSO formulas (folint)
     pulse   decode a flight-recorder dump or query a live exporter
     serve   resident multi-tenant learning service (folserve)
     call    run one op on a resident server, replaying its output
     submit  enqueue a learn as a resumable server-side job
     poll    fetch a submitted job's result or status

   Graph specifications (the --graph argument):
     path:N          cycle:N        clique:N      star:N
     grid:WxH        tree:N[:SEED]  deg:N:D[:SEED]
     gnp:N:P[:SEED]  cbt:DEPTH      file:PATH
   Colours are added with repeatable --color NAME=v1,v2,... options. *)

open Cmdliner
open Cgraph

(* ------------------------------------------------------------------ *)
(* Graph specification parsing                                         *)
(* ------------------------------------------------------------------ *)

(* the spec DSL lives in Serve.Exec so the resident service accepts
   exactly the strings this CLI accepts *)
let parse_graph_spec = Serve.Exec.parse_graph_spec

let graph_conv =
  let parser s = try parse_graph_spec s with _ -> Error (`Msg "bad graph spec") in
  let printer ppf _ = Format.fprintf ppf "<graph>" in
  Arg.conv (parser, printer)

let parse_color = Serve.Exec.parse_color

let color_conv =
  let parser s = try parse_color s with _ -> Error (`Msg "bad colour spec") in
  let printer ppf (name, _) = Format.fprintf ppf "%s=..." name in
  Arg.conv (parser, printer)

(* A usage error found while building a request (a malformed formula,
   a target outside the graph's vocabulary, ...) exits 2 with its
   message on stderr.  Formulas are taken as plain strings and parsed
   inside the command body: cmdliner reserves its own exit code (124)
   for [Arg.conv] failures. *)
let usage fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "%s@." m;
      exit 2)
    fmt

let or_usage = function Ok v -> v | Error m -> usage "%s" m

let addr_of_spec ~cmd ~flag spec =
  match Pulse.Addr.parse spec with
  | Ok a -> a
  | Error m ->
      usage "folearn %s: %s %s" cmd flag m

let parse_formula_or_exit ~cmd ~flag s =
  or_usage (Serve.Exec.parse_formula ~cmd ~flag s)

(* common args *)

let graph_arg =
  Arg.(
    required
    & opt (some graph_conv) None
    & info [ "g"; "graph" ] ~docv:"SPEC"
        ~doc:"Background graph, e.g. path:10, tree:30:7, grid:4x5, gnp:20:0.3.")

let colors_arg =
  Arg.(
    value & opt_all color_conv []
    & info [ "c"; "color" ] ~docv:"NAME=V,V"
        ~doc:"Add a colour class (repeatable), e.g. --color Red=0,3,6.")

(* observability: --trace / --stats / --stats-json on the compute-heavy
   subcommands.  The sink stays disabled unless one of them is given, so
   the default path keeps its uninstrumented cost. *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans and write a Chrome trace-event file, loadable in \
           chrome://tracing or ui.perfetto.dev.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the metrics snapshot after the run.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the metrics snapshot as JSON (pretty-print it back with \
           $(b,folearn stats)).")

type obs_opts = {
  trace : string option;
  stats : bool;
  stats_json : string option;
}

let obs_term =
  let mk trace stats stats_json = { trace; stats; stats_json } in
  Term.(const mk $ trace_arg $ stats_arg $ stats_json_arg)

(* live telemetry: --metrics-addr serves /metrics, /metrics.json,
   /healthz and /progress from a domain of its own for the whole run;
   --fdr keeps the bounded event ring flowing to a crash-readable
   flight-recorder file.  Both ride the compute-heavy subcommands. *)

let metrics_addr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-addr" ] ~docv:"ADDR"
        ~doc:
          "Serve live telemetry while the run executes: $(b,unix:PATH), \
           $(b,HOST:PORT) or $(b,:PORT) (port 0 picks a free port, \
           printed on stderr).  Endpoints: /metrics (Prometheus text), \
           /metrics.json, /healthz, /progress.  Implies metric \
           recording, like --stats.")

let fdr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fdr" ] ~docv:"FILE"
        ~doc:
          "Flight recorder: keep rewriting $(docv) with the most recent \
           telemetry events (atomic writes), so even a SIGKILL'd run \
           leaves a readable dump.  Decode it with $(b,folearn pulse).")

type pulse_opts = { metrics_addr : string option; fdr : string option }

let pulse_term =
  let mk metrics_addr fdr = { metrics_addr; fdr } in
  Term.(const mk $ metrics_addr_arg $ fdr_arg)

(* attach the flight recorder and bracket [f] with the exporter server;
   the recorder stays attached afterwards so the at_exit dump still
   lands *)
let with_pulse ~cmd { metrics_addr; fdr } f =
  (match fdr with
  | None -> ()
  | Some path -> Pulse.Fdr.attach ~path ());
  match metrics_addr with
  | None -> f ()
  | Some spec -> (
      let addr = addr_of_spec ~cmd ~flag:"--metrics-addr" spec in
      match Pulse.Server.start addr with
      | Error m ->
          usage "folearn %s: --metrics-addr %s: %s" cmd
            (Pulse.Addr.to_string addr) m
      | Ok srv ->
          Format.eprintf "folearn %s: serving telemetry on %s@." cmd
            (Pulse.Addr.to_string (Pulse.Server.bound_addr srv));
          Fun.protect
            ~finally:(fun () ->
              (* a signal flipped the exporter into draining mode: hold
                 the server up for a beat so scrapers observe the 503
                 before the socket closes (used by CI; default is no
                 grace, stop immediately) *)
              (if Pulse.Server.draining () then
                 match
                   Option.bind
                     (Sys.getenv_opt "FOLEARN_DRAIN_GRACE")
                     float_of_string_opt
                 with
                 | Some s when s > 0.0 -> Unix.sleepf s
                 | _ -> ());
              Pulse.Server.set_progress None;
              Pulse.Server.stop srv)
            f)

let with_obs ~pulse { trace; stats; stats_json } f =
  if
    trace = None && (not stats) && stats_json = None
    && pulse.metrics_addr = None
  then f ()
  else begin
    Obs.enable ();
    Obs.reset_all ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        (match trace with
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc
                  (Obs.Json.to_string (Obs.Span.chrome_trace ())))
        | None -> ());
        (match stats_json with
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc
                  (Obs.Json.to_string
                     (Obs.Metric.snapshot_to_json (Obs.Metric.snapshot ()))))
        | None -> ());
        if stats then
          Format.printf "%a" Obs.Metric.pp_snapshot (Obs.Metric.snapshot ()))
      f
  end

(* resource budgets: --fuel / --timeout / --max-table / --max-ball on
   the compute-heavy subcommands.  With none of them given no budget is
   installed, so the default path costs one load and one branch per
   checkpoint.  Exit codes: 0 complete, 2 usage, 3 degraded but
   answered, 4 exhausted with nothing to show. *)

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Abort after $(docv) checkpoint ticks (solver candidates, type \
              rows, BFS dequeues, ...).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock deadline for the whole command, in seconds \
              (fractions allowed).")

let max_table_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-table" ] ~docv:"ROWS"
        ~doc:"Cap on memoised Hintikka-type table rows.")

let max_ball_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-ball" ] ~docv:"VERTICES"
        ~doc:"Cap on the size of any neighbourhood ball.")

type budget_opts = {
  fuel : int option;
  timeout : float option;
  max_table : int option;
  max_ball : int option;
}

let budget_term =
  let mk fuel timeout max_table max_ball =
    { fuel; timeout; max_table; max_ball }
  in
  Term.(const mk $ fuel_arg $ timeout_arg $ max_table_arg $ max_ball_arg)

let has_limits { fuel; timeout; max_table; max_ball } =
  fuel <> None || timeout <> None || max_table <> None || max_ball <> None

let budget_of ({ fuel; timeout; max_table; max_ball } as b) =
  if has_limits b then
    Some (Guard.Budget.make ?fuel ?timeout_s:timeout ?max_table ?max_ball ())
  else None

(* admission control: a declared budget that is provably below the
   static first-settle floor ([Analysis.Plan]) is rejected before any
   fuel burns; --no-precheck restores the plain doomed burn *)
let no_precheck_arg =
  Arg.(
    value & flag
    & info [ "no-precheck" ]
        ~doc:
          "Skip the static admission precheck: run even when the declared \
           budget is provably too small to settle a first answer (see \
           $(b,folearn plan)).")

(* parallelism: --jobs on the compute-heavy subcommands.  The flag
   overrides the FOLEARN_JOBS environment variable; with neither given
   everything runs on one domain and the sequential code paths are
   taken unchanged. *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "FOLEARN_JOBS")
        ~doc:
          "Worker domains for the parallel solver paths (default 1). \
           Results are bit-identical to a sequential run.")

let apply_jobs = function
  | None -> ()
  | Some n when n >= 1 -> Par.set_jobs n
  | Some n ->
      usage "folearn: --jobs must be >= 1 (got %d)" n

(* the /progress fuel gauge needs a live budget to read spend from, so
   --metrics-addr with no budget flag installs an unlimited one — the
   same precedent --checkpoint set for its snapshot cadence *)
let budget_for_pulse pulse budget =
  match budget with
  | Some _ as b -> b
  | None ->
      if pulse.metrics_addr = None then None
      else Some (Guard.Budget.unlimited ())

(* crash safety: --checkpoint / --resume on the long-running
   subcommands.  Snapshot cadence rides the Guard tick hook, so an
   uncheckpointed, unbudgeted run keeps its zero-overhead hot path;
   --checkpoint with no budget flag installs an unlimited budget purely
   to drive the cadence (it never trips). *)

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"PATH"
        ~doc:
          "Write crash-safe snapshots of the run to $(docv) (atomic \
           temp-file + fsync + rename; CRC-checked on load).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Snapshot every $(docv) settled candidates (default: off, the \
           time cadence governs).")

let checkpoint_interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "checkpoint-interval" ] ~docv:"SECONDS"
        ~doc:"Snapshot at most every $(docv) seconds (default 2).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"PATH"
        ~doc:
          "Resume from the snapshot at $(docv).  A missing file is a \
           fresh start; a corrupt snapshot or one from a different \
           run/solver is a usage error.  The resumed run's output is \
           bit-identical to an uninterrupted one.")

type ckpt_opts = {
  ck_path : string option;
  ck_every : int option;
  ck_interval : float;
  ck_resume : string option;
}

let ckpt_term =
  let mk ck_path ck_every ck_interval ck_resume =
    { ck_path; ck_every; ck_interval; ck_resume }
  in
  Term.(
    const mk $ checkpoint_arg $ checkpoint_every_arg $ checkpoint_interval_arg
    $ resume_arg)

(* the handler body is async-signal-safe (two atomic stores); the next
   budgeted tick on any domain converts the flag into an [Interrupted]
   trip, the outcome handler flushes a final snapshot, and a live
   /healthz endpoint starts answering 503 draining *)
let install_signals () =
  let h =
    Sys.Signal_handle
      (fun _ ->
        Guard.interrupt ();
        Pulse.Server.set_draining true)
  in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

(* Resolve the checkpoint flags into (budget, controller).  Resuming a
   snapshot whose run id or solver differs from this invocation would
   silently replay-skip the wrong candidates, so that is a usage
   error; a missing snapshot file is a fresh start, letting harnesses
   pass --checkpoint and --resume together unconditionally. *)
let setup_resilience ~cmd ~solver ~run_id ~budget
    { ck_path; ck_every; ck_interval; ck_resume } =
  Guard.clear_interrupt ();
  let resume =
    match ck_resume with
    | None -> None
    | Some path -> (
        match Resil.Snapshot.load_for ~run_id ~solver path with
        | Ok snap ->
            Format.eprintf
              "folearn %s: resuming from %s (cursor %d, %d snapshot \
               writes so far)@."
              cmd path snap.Resil.Snapshot.cursor
              snap.Resil.Snapshot.writes;
            Some snap
        | Error `Not_found ->
            Format.eprintf "folearn %s: no snapshot at %s; starting fresh@."
              cmd path;
            None
        | Error (`Corrupt msg) ->
            usage "folearn %s: --resume %s: corrupt snapshot: %s" cmd path msg
        | Error (`Mismatch m) ->
            Format.eprintf "folearn %s: --resume %s: %a@." cmd path
              Resil.Snapshot.pp_mismatch m;
            Format.eprintf
              "folearn %s: hint: that snapshot belongs to another \
               invocation; pass a fresh --checkpoint path to start over@."
              cmd;
            exit 2)
  in
  let wants_ckpt = ck_path <> None || resume <> None in
  let budget =
    match budget with
    | Some _ as b -> b
    | None -> if wants_ckpt then Some (Guard.Budget.unlimited ()) else None
  in
  (match budget with Some _ -> install_signals () | None -> ());
  let ckpt =
    if not wants_ckpt then Resil.Ctl.none
    else
      Resil.Ctl.create ?path:ck_path ?every:ck_every ~interval_s:ck_interval
        ?budget ?resume ~run_id ~solver ()
  in
  (budget, ckpt)

(* Install the /progress sampler: a closure over the run's identity,
   the Resil frontier/best, the Guard budget, the static plan envelope
   when there is one (so scrapers get fuel_spent / fuel_hi
   percent-complete without running `folearn plan` themselves) and any
   [extra] members.  The closure runs on the exporter domain, so it
   only touches mutex- or atomic-guarded state. *)
let install_progress ~run_id ~solver ~sample_size ?total ?fuel_lo ?fuel_hi
    ?(extra = fun () -> []) budget ckpt =
  Pulse.Server.set_progress
    (Some
       (fun () ->
         let fuel_spent, elapsed_ns =
           match budget with
           | None -> (None, None)
           | Some b ->
               let s = Guard.Budget.spent b in
               (Some s.Guard.fuel, Some s.Guard.elapsed_ns)
         in
         match
           Pulse.Progress.to_json
             {
               Pulse.Progress.run_id;
               solver;
               frontier = Resil.Ctl.frontier ckpt;
               total;
               best = Resil.Ctl.best ckpt;
               sample_size;
               fuel_spent;
               elapsed_ns;
               fuel_lo;
               fuel_hi;
             }
         with
         | Obs.Json.Obj kvs -> Obs.Json.Obj (kvs @ extra ())
         | j -> j))

(* ------------------------------------------------------------------ *)
(* learn / mc / types / game: one Serve.Exec call per invocation       *)
(* ------------------------------------------------------------------ *)

(* the process-level flags of the four ops *)
type proc_opts = {
  jobs : int option;
  budget : budget_opts;
  ckpt : ckpt_opts;
  pulse : pulse_opts;
  obs : obs_opts;
}

let proc_term =
  let mk jobs budget ckpt pulse obs = { jobs; budget; ckpt; pulse; obs } in
  Term.(const mk $ jobs_arg $ budget_term $ ckpt_term $ pulse_term $ obs_term)

let with_process ~cmd proc f =
  apply_jobs proc.jobs;
  with_obs ~pulse:proc.pulse proc.obs @@ fun () -> with_pulse ~cmd proc.pulse f

(* Run the request [build] returns as this process: the budget from the
   flags (started before the request is built, so a --timeout covers
   labelling), checkpoint/resume, the /progress sampler, then the op on
   the process streams.  Without checkpointing a live /progress endpoint
   still tracks the settled frontier, passively: admission prechecks
   see an un-checkpointed run. *)
let exec_op ~cmd ~precheck proc build =
  let budget = budget_for_pulse proc.pulse (budget_of proc.budget) in
  let req = build () in
  let run_id = Serve.Exec.run_id req and solver = Serve.Exec.solver_name req in
  let budget, ckpt = setup_resilience ~cmd ~solver ~run_id ~budget proc.ckpt in
  let ckpt =
    if proc.pulse.metrics_addr = None then ckpt
    else begin
      let ckpt =
        if Resil.Ctl.active ckpt then ckpt
        else Resil.Ctl.observer ~run_id ~solver ()
      in
      (match req with
      | Serve.Exec.Learn { p; tuples; lam } ->
          let module Plan = Analysis.Plan in
          let module Cm = Analysis.Cost_model in
          let plan =
            Plan.analyze
              (Plan.input ~tmax:p.lp_tmax p.lp_g ~k:p.lp_k ~ell:p.lp_ell
                 ~q:p.lp_q tuples)
              (Serve.Exec.plan_solver p.lp_solver)
          in
          let env = Cm.Count.to_int_opt in
          install_progress ~run_id ~solver
            ~sample_size:(Folearn.Sample.size lam)
            ?fuel_lo:(env plan.Plan.fuel_total.Cm.Env.lo)
            ?fuel_hi:(env plan.Plan.fuel_total.Cm.Env.hi)
            ?total:(env plan.Plan.hypotheses.Cm.Env.hi) budget ckpt
      | Mc _ | Types _ | Game _ ->
          install_progress ~run_id ~solver ~sample_size:0 budget ckpt);
      ckpt
    end
  in
  Serve.Exec.run ~out:Format.std_formatter ~err:Format.err_formatter ?budget
    ~ckpt ~precheck req

(* ------------------------------------------------------------------ *)
(* fleet: fault-tolerant multi-process ERM sharding (learn only)       *)
(* ------------------------------------------------------------------ *)

(* `learn --fleet DIR --workers N` runs the coordinator: it shards the
   candidate space into lease-claimed chunks under DIR, keeps N worker
   processes alive (respawning dead ones), and merges their published
   frontiers into the deterministic (error, index) lex-min — so the
   final output is byte-identical to a sequential run.  `--worker`
   turns the invocation into a claimant for an externally supervised
   fleet (same DIR, same learn flags). *)

type fleet_opts = {
  f_dir : string option;
  f_workers : int;
  f_worker : bool;
  f_worker_id : string option;
  f_heartbeat : float;
  f_chunk : int option;
  f_max_attempts : int;
  f_chaos : string option;
}

let fleet_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fleet" ] ~docv:"DIR"
        ~doc:
          "Shard the ERM sweep across processes coordinating through \
           $(docv) (lease files, heartbeat expiry, fenced publishes).  \
           The directory is the durable state: re-running the same \
           command against it resumes where the fleet left off.")

let fleet_workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker processes the coordinator spawns and keeps alive \
           (default 1; 0 = externally supervised $(b,--worker) \
           claimants only).")

let fleet_worker_arg =
  Arg.(
    value & flag
    & info [ "worker" ]
        ~doc:
          "Run as a fleet worker: claim chunks from $(b,--fleet) DIR, \
           evaluate, publish, repeat until the coordinator writes DONE.  \
           Prints nothing to stdout.")

let fleet_worker_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fleet-worker-id" ] ~docv:"ID"
        ~doc:"Worker id recorded in leases (default: w-ext-<pid>).")

let fleet_heartbeat_arg =
  Arg.(
    value & opt float 5.0
    & info [ "fleet-heartbeat" ] ~docv:"SECONDS"
        ~doc:
          "Lease heartbeat: a worker renews its lease every third of \
           this, and the coordinator reclaims chunks whose lease \
           deadline passed (default 5).")

let fleet_chunk_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fleet-chunk" ] ~docv:"N"
        ~doc:
          "Candidates per chunk (default: candidate count / (8 x \
           workers), at most 4096 chunks).")

let fleet_max_attempts_arg =
  Arg.(
    value & opt int 3
    & info [ "fleet-max-attempts" ] ~docv:"N"
        ~doc:
          "Quarantine a chunk after $(docv) failed attempts instead of \
           retrying forever (default 3).")

let fleet_chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fleet-chaos" ] ~docv:"SPEC"
        ~doc:
          "Test-only fault injection: comma-separated $(b,poison:C) \
           (chunk C always fails deterministically) and $(b,flaky:C:N) \
           (chunk C fails transiently on its first N claims) terms, \
           applied by workers.")

let fleet_term =
  let mk f_dir f_workers f_worker f_worker_id f_heartbeat f_chunk
      f_max_attempts f_chaos =
    {
      f_dir; f_workers; f_worker; f_worker_id; f_heartbeat; f_chunk;
      f_max_attempts; f_chaos;
    }
  in
  Term.(
    const mk $ fleet_dir_arg $ fleet_workers_arg $ fleet_worker_arg
    $ fleet_worker_id_arg $ fleet_heartbeat_arg $ fleet_chunk_arg
    $ fleet_max_attempts_arg $ fleet_chaos_arg)

let fleet_chaos_of ~cmd = function
  | None -> []
  | Some spec -> (
      match Fleet.parse_chaos spec with
      | Ok chaos -> chaos
      | Error m ->
          usage "folearn %s: --fleet-chaos: %s" cmd m)

(* fleet shards the indexable parameter sweeps; nd and local have no
   stable candidate numbering to shard over *)
let fleet_check_solver ~cmd solver =
  match solver with
  | `Brute | `Counting -> ()
  | `Nd | `Local ->
      usage "folearn %s: --fleet supports --solver brute and counting only" cmd

(* fleet worker: claim/evaluate/publish against --fleet DIR until the
   coordinator writes DONE.  No stdout, no telemetry, no signal
   rewiring — the coordinator owns the run's observable surface.
   Workers rebuild the coordinator's sample from their own flags
   ([Serve.Exec.prepare] depends on the flags alone). *)
let run_fleet_worker fleet ~solver ~prepare budget_opts =
  let dir =
    match fleet.f_dir with
    | Some d -> d
    | None ->
        usage "folearn learn: --worker requires --fleet DIR"
  in
  fleet_check_solver ~cmd:"learn" solver;
  let chaos = fleet_chaos_of ~cmd:"learn" fleet.f_chaos in
  let prep = prepare () in
  let sweep = Serve.Exec.sweep prep in
  Fleet.worker
    {
      Fleet.w_dir = dir;
      w_id =
        (match fleet.f_worker_id with
        | Some id -> id
        | None -> Printf.sprintf "w-ext-%d" (Unix.getpid ()));
      w_run_id = Serve.Exec.run_id (Learn prep);
      w_solver = Serve.Exec.solver_name (Learn prep);
      w_parent =
        Option.bind (Sys.getenv_opt "FOLEARN_FLEET_PARENT") int_of_string_opt;
      w_chaos = chaos;
      w_make_budget = (fun () -> budget_of budget_opts);
      (* chunk results carry only (index, errors): no type ids survive
         a chunk, so the worker process can drop the intern registries
         instead of growing them for the whole drain *)
      w_reclaim =
        (fun () ->
          Modelcheck.Types.reset_tables ();
          Modelcheck.Ctypes.reset_tables ());
    }
    ~eval:(Folearn.Sweep.eval_range sweep)

(* fleet coordinator: shard, supervise, merge; the printed result is
   byte-identical to the sequential solver's *)
let run_fleet_coordinator ~dir fleet ~precheck ~solver ~prepare proc =
  fleet_check_solver ~cmd:"learn" solver;
  (match (proc.ckpt.ck_path, proc.ckpt.ck_resume) with
  | None, None -> ()
  | _ ->
      usage
        "folearn learn: --fleet and --checkpoint/--resume are mutually \
         exclusive (the fleet directory is the durable state)");
  (match fleet.f_worker_id with
  | None -> ()
  | Some _ ->
      usage "folearn learn: --fleet-worker-id requires --worker");
  if fleet.f_workers < 0 then
    usage "folearn learn: --workers must be >= 0 (got %d)" fleet.f_workers;
  if fleet.f_heartbeat <= 0.0 then
    usage "folearn learn: --fleet-heartbeat must be positive";
  if fleet.f_max_attempts < 1 then
    usage "folearn learn: --fleet-max-attempts must be >= 1";
  (* workers apply the chaos spec; validate it up front anyway so a
     typo fails the run before any fork *)
  let (_ : Fleet.chaos list) = fleet_chaos_of ~cmd:"learn" fleet.f_chaos in
  let ({ Serve.Exec.p; lam; _ } as prep) = prepare () in
  let out = Format.std_formatter and err = Format.err_formatter in
  Serve.Exec.report_sample ~out prep;
  let req = Serve.Exec.Learn prep in
  let run_id = Serve.Exec.run_id req and solver_name = Serve.Exec.solver_name req in
  let sample_size = Folearn.Sample.size lam in
  let total =
    match Graph.Tuple.count ~n:(Graph.order p.lp_g) ~k:p.lp_ell with
    | Some t -> t
    | None ->
        Format.eprintf
          "folearn learn: --fleet: the candidate space n^ell does not fit \
           in an int; nothing to shard@.";
        exit 2
  in
  (* same admission gate the sequential solvers run: a per-chunk
     budget provably below the first-settle floor is rejected before
     any worker forks *)
  (match
     Folearn.Sweep.admit ?budget:(budget_of proc.budget) ~enabled:precheck
       (Serve.Exec.sweep prep)
   with
  | Some (Guard.Exhausted { reason; checkpoint; spent; _ }) ->
      Serve.Exec.report_exhausted ~err ~cmd:"learn" ~reason ~checkpoint ~spent;
      Format.eprintf "folearn learn: no hypothesis salvaged@.";
      exit (Serve.Exec.exhausted_exit reason ~salvaged:false)
  | Some (Guard.Complete _) | None -> ());
  Guard.clear_interrupt ();
  install_signals ();
  let mon = Fleet.Monitor.create () in
  let ctl =
    if proc.pulse.metrics_addr <> None then
      Resil.Ctl.observer ~run_id ~solver:solver_name ()
    else Resil.Ctl.none
  in
  (* /progress: the standard frontier document plus a "fleet" member
     with per-worker liveness, lease churn and quarantine counts *)
  if proc.pulse.metrics_addr <> None then
    install_progress ~run_id ~solver:solver_name ~sample_size ~total
      ~extra:(fun () -> [ ("fleet", Fleet.Monitor.to_json mon) ])
      None ctl;
  let chunk_size =
    match fleet.f_chunk with
    | Some c when c >= 1 -> c
    | Some c ->
        usage "folearn learn: --fleet-chunk must be >= 1 (got %d)" c
    | None ->
        let by_workers = max 1 (total / (8 * max 1 fleet.f_workers)) in
        let min_for_cap = (total + 4095) / 4096 in
        max by_workers min_for_cap
  in
  Unix.putenv "FOLEARN_FLEET_PARENT" (string_of_int (Unix.getpid ()));
  let spawn i =
    Unix.create_process Sys.executable_name
      (Array.append Sys.argv
         [| "--worker"; "--fleet-worker-id"; "w" ^ string_of_int i |])
      Unix.stdin Unix.stdout Unix.stderr
  in
  let cfg =
    {
      Fleet.c_dir = dir;
      c_run_id = run_id;
      c_solver = solver_name;
      c_total = total;
      c_chunk_size = chunk_size;
      c_heartbeat_s = fleet.f_heartbeat;
      c_max_attempts = fleet.f_max_attempts;
      c_sample_size = sample_size;
      c_workers = fleet.f_workers;
      c_spawn = spawn;
      c_backoff_base_s = Fleet.default_backoff_base_s;
      c_backoff_cap_s = Fleet.default_backoff_cap_s;
    }
  in
  match Fleet.coordinate ~monitor:mon ~ctl cfg with
  | Error msg ->
      Format.eprintf "folearn learn: --fleet: %s@." msg;
      2
  | Ok res ->
      (* the winning hypothesis is recovered by re-evaluating the
         lex-min index with a fresh context — the same mechanism a
         full-skip checkpoint resume uses, so the output bytes match
         the sequential run *)
      let print_winner ~params_tried =
        Serve.Exec.print_sweep_winner ~out prep ~params_tried
          (Option.map fst res.Fleet.best)
      in
      let best_so_far () =
        Format.printf "best-so-far hypothesis (no optimality certificate):@.";
        print_winner ~params_tried:res.Fleet.settled
      in
      if res.Fleet.interrupted then begin
        Format.eprintf
          "folearn learn: interrupted; fleet directory %s holds the settled \
           frontier (%d of %d candidates)@."
          dir res.Fleet.settled total;
        Pulse.Fdr.dump_now ~reason:"interrupted";
        (match res.Fleet.best with
        | Some _ -> best_so_far ()
        | None -> Format.eprintf "folearn learn: no hypothesis salvaged@.");
        Serve.Exec.exit_degraded
      end
      else if res.Fleet.quarantined <> [] then begin
        Format.eprintf
          "folearn learn: fleet quarantined %d chunk(s) after repeated \
           failures:@."
          (List.length res.Fleet.quarantined);
        List.iter
          (fun qc ->
            Format.eprintf "  chunk %d [%d,%d): %d attempts, last error: %s@."
              qc.Fleet.q_chunk qc.Fleet.q_lo qc.Fleet.q_hi qc.Fleet.q_attempts
              qc.Fleet.q_error)
          res.Fleet.quarantined;
        match res.Fleet.best with
        | Some _ ->
            best_so_far ();
            Serve.Exec.exit_degraded
        | None ->
            Format.eprintf "folearn learn: no hypothesis salvaged@.";
            Serve.Exec.exit_exhausted
      end
      else begin
        print_winner ~params_tried:total;
        0
      end

(* ------------------------------------------------------------------ *)
(* learn                                                               *)
(* ------------------------------------------------------------------ *)

(* the run-shaping flags `learn` and `plan` share *)
type learn_flags = {
  lf_k : int;
  lf_ell : int;
  lf_q : int;
  lf_solver : Serve.Exec.solver;
  lf_tmax : int;
  lf_m : int;
  lf_seed : int;
}

let learn_flags_term =
  let k_arg = Arg.(value & opt int 1 & info [ "k" ] ~doc:"Arity of examples.") in
  let ell_arg =
    Arg.(value & opt int 0 & info [ "l"; "ell" ] ~doc:"Parameter budget.")
  in
  let q_arg =
    Arg.(value & opt int 1 & info [ "q" ] ~doc:"Quantifier-rank budget.")
  in
  let solver_arg =
    Arg.(
      value
      & opt (enum Serve.Exec.solvers) `Brute
      & info [ "solver" ]
          ~doc:
            "ERM solver: $(b,brute) (Prop 11, exact), $(b,nd) (Theorem 13, \
             nowhere dense), $(b,counting) (FOC extension), or $(b,local) \
             (sublinear local access; with budget flags it runs the \
             degradation chain).  $(b,plan) analyzes all four and \
             predicts the selected one.")
  in
  let tmax_arg =
    Arg.(
      value & opt int 2
      & info [ "tmax" ]
          ~doc:"Counting-threshold cap for $(b,--solver counting).")
  in
  let m_arg =
    Arg.(
      value & opt int 0
      & info [ "m" ]
          ~doc:"Sample size (0 = label every tuple of the graph).")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let mk lf_k lf_ell lf_q lf_solver lf_tmax lf_m lf_seed =
    { lf_k; lf_ell; lf_q; lf_solver; lf_tmax; lf_m; lf_seed }
  in
  Term.(
    const mk $ k_arg $ ell_arg $ q_arg $ solver_arg $ tmax_arg $ m_arg
    $ seed_arg)

let learn_cmd =
  let target_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "t"; "target" ] ~docv:"FORMULA"
          ~doc:
            "Hidden target query over x1..xk (used only to label the \
             training data).")
  in
  let noise_arg =
    Arg.(value & opt float 0.0 & info [ "noise" ] ~doc:"Label-flip probability.")
  in
  let run g colors target noise f no_precheck fleet proc =
    (* the solo path, the fleet coordinator and fleet workers all
       build the same sample from the flags alone *)
    let prepare () =
      or_usage
        (Serve.Exec.prepare
           {
             Serve.Exec.lp_g = Graph.with_colors g colors;
             lp_target =
               parse_formula_or_exit ~cmd:"learn" ~flag:"--target" target;
             lp_k = f.lf_k;
             lp_ell = f.lf_ell;
             lp_q = f.lf_q;
             lp_solver = f.lf_solver;
             lp_tmax = f.lf_tmax;
             lp_noise = noise;
             lp_m = f.lf_m;
             lp_seed = f.lf_seed;
           })
    in
    let precheck = not no_precheck and solver = f.lf_solver in
    if fleet.f_worker then begin
      apply_jobs proc.jobs;
      run_fleet_worker fleet ~solver ~prepare proc.budget
    end
    else
      with_process ~cmd:"learn" proc @@ fun () ->
      match fleet.f_dir with
      | Some dir ->
          run_fleet_coordinator ~dir fleet ~precheck ~solver ~prepare proc
      | None ->
          exec_op ~cmd:"learn" ~precheck proc (fun () ->
              Serve.Exec.Learn (prepare ()))
  in
  Cmd.v
    (Cmd.info "learn" ~doc:"Learn a first-order query from labelled examples.")
    Term.(
      const run $ graph_arg $ colors_arg $ target_arg $ noise_arg
      $ learn_flags_term $ no_precheck_arg $ fleet_term $ proc_term)

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

(* Static cost analysis ("focost"): analyze the run that `learn` with
   the same arguments would execute — without burning a single unit of
   fuel — and report symbolic cost envelopes per solver, the degrade
   chain a budgeted --solver local run walks, a solver/jobs
   recommendation, --fuel suggestions bracketing each exit code, and
   (when budget flags are given) the predicted exit code with its
   certainty.  --strict turns a provably infeasible budget into exit 1,
   making `plan` usable as a pre-submit admission gate. *)

let plan_cmd =
  let module Plan = Analysis.Plan in
  let target_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "target" ] ~docv:"FORMULA"
          ~doc:
            "Target query over x1..xk.  Validated like $(b,learn) does; \
             the cost plan itself depends only on the example tuples, \
             never on the labels.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("sarif", `Sarif) ]) `Json
      & info [ "format" ]
          ~doc:
            "Output format: $(b,json) (the full plan) or $(b,sarif) \
             (admission diagnostics only, SARIF 2.1.0).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit 1 when the declared budget is provably infeasible for \
             the selected solver (the admission precheck would reject \
             the run).")
  in
  let run g colors target f ({ fuel; timeout; max_table; max_ball } as b)
      format strict =
    let g = Graph.with_colors g colors in
    let k = f.lf_k and ell = f.lf_ell and q = f.lf_q and tmax = f.lf_tmax in
    Option.iter
      (fun t ->
        or_usage
          (Serve.Exec.check_target ~cmd:"plan" g ~k
             (parse_formula_or_exit ~cmd:"plan" ~flag:"--target" t)))
      target;
    or_usage
      (Serve.Exec.check_params ~cmd:"plan" g ~k ~ell ~q ~solver:f.lf_solver
         ~tmax ~noise:0.0);
    let tuples =
      Serve.Exec.sample_tuples g ~k ~m:f.lf_m ~seed:f.lf_seed
    in
    let inp = Plan.input ~tmax g ~k ~ell ~q tuples in
    let solvers = [ Plan.Brute; Plan.Local; Plan.Nd; Plan.Counting ] in
    let plans = List.map (Plan.analyze inp) solvers in
    let chain = Plan.degrade_stages inp in
    let limits = Plan.limits ?fuel ?timeout_s:timeout ?max_table ?max_ball () in
    let has_limits = has_limits b in
    let selected = Serve.Exec.plan_solver f.lf_solver in
    let selected_plan = Plan.analyze inp selected in
    (* the budgeted local path of `learn` runs the degradation chain,
       so its prediction and admission must use chain semantics *)
    let chain_mode = selected = Plan.Local && has_limits in
    let prediction =
      if chain_mode then Plan.predict_chain chain limits
      else Plan.predict selected_plan limits
    in
    let rejection =
      if not has_limits then None
      else if chain_mode then
        Plan.precheck_chain ~what:"plan" chain limits
      else Plan.precheck ~what:"plan" selected_plan limits
    in
    let module J = Obs.Json in
    (match format with
    | `Sarif ->
        let artifact =
          match target with Some _ -> "--target" | None -> "<plan>"
        in
        let diags =
          match rejection with
          | Some r -> [ r.Plan.diagnostic ]
          | None -> []
        in
        print_string (Analysis.Sarif.to_string ~tool:"focost" [ (artifact, diags) ]);
        print_newline ()
    | `Json ->
        let solver_entry s p =
          ( Plan.solver_name s,
            J.Obj
              [
                ("plan", Plan.to_json p);
                ("suggested_fuel", Plan.suggestion_to_json (Plan.suggest_fuel p));
                ("prediction", Plan.prediction_to_json (Plan.predict p limits));
              ] )
        in
        let opt_int = function None -> J.Null | Some v -> J.Int v in
        let doc =
          J.Obj
            [
              ("graph", Stats.to_json (Stats.probe g));
              ( "params",
                J.Obj
                  [
                    ("k", J.Int k); ("ell", J.Int ell); ("q", J.Int q);
                    ("tmax", J.Int tmax);
                    ("examples", J.Int (List.length tuples));
                    ("solver", J.String (Plan.solver_name selected));
                  ] );
              ( "limits",
                J.Obj
                  [
                    ("fuel", opt_int fuel);
                    ( "timeout_s",
                      match timeout with
                      | None -> J.Null
                      | Some t -> J.Float t );
                    ("max_table", opt_int max_table);
                    ("max_ball", opt_int max_ball);
                  ] );
              ("solvers", J.Obj (List.map2 solver_entry solvers plans));
              ( "degrade_chain",
                J.Obj
                  [
                    ("stages", J.List (List.map Plan.to_json chain));
                    ( "suggested_fuel",
                      Plan.suggestion_to_json (Plan.suggest_fuel_chain chain) );
                    ( "prediction",
                      Plan.prediction_to_json (Plan.predict_chain chain limits)
                    );
                  ] );
              ( "recommendation",
                Plan.recommendation_to_json (Plan.recommend plans) );
              ("prediction", Plan.prediction_to_json prediction);
              ( "admitted",
                J.Bool (match rejection with None -> true | Some _ -> false) );
              ( "rejection",
                match rejection with
                | None -> J.Null
                | Some r ->
                    J.Obj
                      [
                        ("resource", J.String r.Plan.resource);
                        ("limit", J.Int r.Plan.limit);
                        ("message", J.String r.Plan.message);
                      ] );
            ]
        in
        print_string (J.to_string doc);
        print_newline ());
    match rejection with
    | Some r when strict ->
        Format.eprintf "folearn plan: %s@." r.Plan.message;
        1
    | _ -> 0
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Static cost analysis: predict the spend, exit code and best \
          solver of a $(b,learn) run without executing it.")
    Term.(
      const run $ graph_arg $ colors_arg $ target_arg $ learn_flags_term
      $ budget_term $ format_arg $ strict_arg)

(* ------------------------------------------------------------------ *)
(* mc                                                                  *)
(* ------------------------------------------------------------------ *)

let mc_cmd =
  let formula_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "f"; "formula" ] ~docv:"SENTENCE" ~doc:"Sentence to check.")
  in
  let via_erm_arg =
    Arg.(
      value & flag
      & info [ "via-erm" ]
          ~doc:"Decide through the Theorem 1 reduction (ERM-oracle calls).")
  in
  (* mc has no candidate enumeration to replay-skip: checkpoints record
     run identity and spend only, and a resumed run re-checks from
     scratch (coarse resume) *)
  let run g colors phi via_erm no_precheck proc =
    with_process ~cmd:"mc" proc @@ fun () ->
    exec_op ~cmd:"mc" ~precheck:(not no_precheck) proc @@ fun () ->
    let phi = parse_formula_or_exit ~cmd:"mc" ~flag:"--formula" phi in
    or_usage (Serve.Exec.mc (Graph.with_colors g colors) phi ~via_erm)
  in
  Cmd.v
    (Cmd.info "mc" ~doc:"First-order model checking (direct or via Theorem 1).")
    Term.(
      const run $ graph_arg $ colors_arg $ formula_arg $ via_erm_arg
      $ no_precheck_arg $ proc_term)

(* ------------------------------------------------------------------ *)
(* types                                                               *)
(* ------------------------------------------------------------------ *)

let types_cmd =
  let q_arg = Arg.(value & opt int 1 & info [ "q" ] ~doc:"Quantifier rank.") in
  let k_arg = Arg.(value & opt int 1 & info [ "k" ] ~doc:"Tuple arity.") in
  let hintikka_arg =
    Arg.(
      value & flag
      & info [ "hintikka" ] ~doc:"Also print one Hintikka formula per class.")
  in
  let run g colors q k hintikka proc =
    with_process ~cmd:"types" proc @@ fun () ->
    exec_op ~cmd:"types" ~precheck:true proc @@ fun () ->
    Serve.Exec.Types { g = Graph.with_colors g colors; q; k; hintikka }
  in
  Cmd.v
    (Cmd.info "types" ~doc:"Print the q-type partition of the graph.")
    Term.(
      const run $ graph_arg $ colors_arg $ q_arg $ k_arg $ hintikka_arg
      $ proc_term)

(* ------------------------------------------------------------------ *)
(* game                                                                *)
(* ------------------------------------------------------------------ *)

let game_cmd =
  let r_arg = Arg.(value & opt int 2 & info [ "r" ] ~doc:"Game radius.") in
  let run g colors r proc =
    with_process ~cmd:"game" proc @@ fun () ->
    exec_op ~cmd:"game" ~precheck:true proc @@ fun () ->
    Serve.Exec.Game { g = Graph.with_colors g colors; r }
  in
  Cmd.v
    (Cmd.info "game" ~doc:"Play out the (r, s)-splitter game.")
    Term.(const run $ graph_arg $ colors_arg $ r_arg $ proc_term)

(* ------------------------------------------------------------------ *)
(* graph                                                               *)
(* ------------------------------------------------------------------ *)

let graph_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Write the graph to a file (default: stdout).")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz instead.")
  in
  let run g colors out dot =
    let g = Graph.with_colors g colors in
    let text = if dot then Graph.to_dot g else Io.to_string g in
    (match out with
    | Some path ->
        if dot then Out_channel.with_open_text path (fun oc -> output_string oc text)
        else Io.save path g
    | None -> print_string text);
    0
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Generate a graph from a spec and print or save it.")
    Term.(const run $ graph_arg $ colors_arg $ out_arg $ dot_arg)


(* ------------------------------------------------------------------ *)
(* strings                                                             *)
(* ------------------------------------------------------------------ *)

let strings_cmd =
  let word_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "word" ] ~docv:"WORD" ~doc:"The background string.")
  in
  let alphabet_arg =
    Arg.(
      value & opt string "ab"
      & info [ "alphabet" ] ~docv:"LETTERS"
          ~doc:"Alphabet, one character per letter (default ab).")
  in
  let sentence_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "formula" ] ~docv:"SENTENCE"
          ~doc:"MSO sentence to model-check against the word.")
  in
  let target_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "target" ] ~docv:"FORMULA"
          ~doc:
            "Unary MSO target phi(x): label every position, then learn it \
             back from the catalogue.")
  in
  let hyp_arg =
    Arg.(
      value & opt_all string []
      & info [ "hyp" ] ~docv:"FORMULA"
          ~doc:
            "Catalogue hypothesis phi(x; y1...) (repeatable; free \
             variables besides x become position parameters).")
  in
  let regex_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "regex" ] ~docv:"REGEX"
          ~doc:
            "Regular expression to match against the word (Glushkov \
             compilation; '|', '*', '+', '?', parentheses).")
  in
  let run word alphabet sentence target hyps regex =
    let letters = List.init (String.length alphabet) (fun i -> String.make 1 alphabet.[i]) in
    let sigma = List.length letters in
    let w =
      try Mso.Word.of_string ~alphabet word
      with Invalid_argument m ->
        usage "folearn strings: %s" m
    in
    let parse src =
      try Mso.Parser.parse ~letters src
      with Mso.Parser.Parse_error m ->
        usage "folearn strings: %s" m
    in
    (match regex with
    | Some src ->
        let r =
          try Mso.Regex.of_string ~letters src
          with Mso.Regex.Parse_error m ->
            usage "folearn strings: %s" m
        in
        let dfa = Mso.Regex.to_dfa ~sigma r in
        Format.printf "%b  (regex automaton: %d states)@."
          (Mso.Dfa.accepts dfa w) dfa.Mso.Dfa.states
    | None -> ());
    (match sentence with
    | Some src ->
        let phi = parse src in
        if Mso.Formula.free phi <> [] then
          usage "folearn strings: -f needs a sentence";
        let dfa = Mso.Formula.language ~sigma phi in
        Format.printf "%b  (automaton: %d states)@."
          (Mso.Dfa.accepts dfa w) dfa.Mso.Dfa.states
    | None -> ());
    (match target with
    | Some src ->
        let tphi = parse src in
        (match Mso.Formula.free tphi with
        | [ ("x", Mso.Formula.Pos) ] -> ()
        | _ ->
            usage "folearn strings: -t needs exactly x free");
        let scope = [ ("x", Mso.Formula.Pos) ] in
        let tdfa = Mso.Formula.compile ~sigma ~scope tphi in
        let examples =
          List.init (Array.length w) (fun p ->
              ( [| p |],
                Mso.Formula.holds_compiled ~sigma ~scope tdfa w
                  { Mso.Formula.pos = [ ("x", p) ]; sets = [] } ))
        in
        let catalogue =
          List.mapi
            (fun i src ->
              let phi = parse src in
              let yvars =
                List.filter_map
                  (fun (v, k) ->
                    if v <> "x" && k = Mso.Formula.Pos then Some v else None)
                  (Mso.Formula.free phi)
              in
              {
                Mso.Learner.name = Printf.sprintf "hyp%d: %s" (i + 1) src;
                phi;
                xvars = [ "x" ];
                yvars;
              })
            hyps
        in
        if catalogue = [] then
          usage "folearn strings: -t needs at least one --hyp";
        (match Mso.Learner.solve ~sigma ~word:w ~catalogue examples with
        | Some r ->
            Format.printf
              "learned %S, parameters [%s], training error %.3f (%d oracle \
               evaluations)@."
              r.Mso.Learner.entry.Mso.Learner.name
              (String.concat ";"
                 (List.map string_of_int (Array.to_list r.Mso.Learner.params)))
              r.Mso.Learner.err r.Mso.Learner.evaluations
        | None -> Format.printf "empty catalogue@.")
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "strings"
       ~doc:"MSO on strings: model checking and learning (related work [21]).")
    Term.(
      const run $ word_arg $ alphabet_arg $ sentence_arg $ target_arg
      $ hyp_arg $ regex_arg)


(* ------------------------------------------------------------------ *)
(* trees                                                               *)
(* ------------------------------------------------------------------ *)

let trees_cmd =
  let tree_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "tree" ] ~docv:"TERM"
          ~doc:"The background tree in term syntax, e.g. 1(0(1),1(0,0)).")
  in
  let labels_arg =
    Arg.(
      value & opt string "ab"
      & info [ "labels" ] ~docv:"NAMES"
          ~doc:
            "Label names, one character per label id (default ab: a = 0, \
             b = 1).")
  in
  let formula_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "formula" ] ~docv:"SENTENCE"
          ~doc:"MSO sentence to model-check against the tree.")
  in
  let concept_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "concept" ] ~docv:"FORMULA"
          ~doc:
            "Unary MSO concept phi(x): classify every node with the \
             two-pass oracle and print the satisfying nodes.")
  in
  let run tree_src labels formula concept =
    let label_names =
      List.init (String.length labels) (fun i -> String.make 1 labels.[i])
    in
    let sigma = List.length label_names in
    let tree =
      try Mso.Tree.of_string tree_src
      with Mso.Tree.Parse_error m ->
        usage "folearn trees: %s" m
    in
    (try Mso.Tree.check_labels ~sigma tree
     with Invalid_argument m ->
       usage "folearn trees: %s" m);
    let parse src =
      try Mso.Tree_parser.parse ~labels:label_names src
      with Mso.Tree_parser.Parse_error m ->
        usage "folearn trees: %s" m
    in
    (match formula with
    | Some src ->
        let phi = parse src in
        if Mso.Tree_formula.free phi <> [] then
          usage "folearn trees: -f needs a sentence";
        let ta = Mso.Tree_formula.compile ~sigma ~scope:[] phi in
        Format.printf "%b@." (Mso.Tree_automaton.accepts ta tree)
    | None -> ());
    (match concept with
    | Some src ->
        let phi = parse src in
        let oracle =
          try Mso.Tree_learner.Node_oracle.make ~sigma phi tree
          with Invalid_argument m ->
            usage "folearn trees: %s" m
        in
        let hits =
          List.filter
            (fun (id, _) -> Mso.Tree_learner.Node_oracle.holds oracle id)
            (Mso.Tree.nodes tree)
        in
        Format.printf "satisfying nodes (preorder ids): [%s]@."
          (String.concat "; " (List.map (fun (id, _) -> string_of_int id) hits))
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "trees"
       ~doc:"MSO on trees: model checking and node concepts (related work [19]).")
    Term.(const run $ tree_arg $ labels_arg $ formula_arg $ concept_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

(* Static analysis of formulas ("folint"): signature conformance against
   a declared vocabulary, scope analysis, paper budget verification
   (quantifier rank <= q, free variables <= k + l), Gaifman-locality
   lints, and simplification hints.  Input formulas come from positional
   files (one formula per line, '#' comments and blank lines ignored)
   and/or repeated --formula options; exit status is non-zero iff any
   formula triggers an error-severity diagnostic (or any warning, with
   --strict). *)

let lint_cmd =
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Formula corpus files: one formula per line; lines starting \
             with '#' and blank lines are ignored.")
  in
  let formulas_arg =
    Arg.(
      value & opt_all string []
      & info [ "f"; "formula" ] ~docv:"FORMULA"
          ~doc:"Formula given inline (repeatable).")
  in
  let lang_arg =
    Arg.(
      value
      & opt (enum [ ("fo", `Fo); ("mso", `Mso); ("trees", `Trees) ]) `Fo
      & info [ "lang" ]
          ~doc:
            "Formula language: $(b,fo) (first-order over coloured graphs), \
             $(b,mso) (MSO on strings), or $(b,trees) (MSO on trees).")
  in
  let vocab_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vocab" ] ~docv:"DECLS"
          ~doc:
            "Declared vocabulary for signature conformance, e.g. \
             $(b,E/2,Red/1,Blue) (a bare name is unary).  Omitted: \
             signature checks are skipped.")
  in
  let alphabet_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "alphabet" ] ~docv:"LETTERS"
          ~doc:
            "Alphabet for --lang mso/trees, one character per letter \
             (default ab).  Also bounds the letter indices checked by \
             the unknown-letter rule.")
  in
  let free_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "free" ] ~docv:"VARS"
          ~doc:
            "Comma-separated interface variables the formula may use \
             free, e.g. $(b,x1,x2,y1).  An empty string demands a \
             sentence.  Omitted: any free variable is allowed.")
  in
  let q_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "q" ] ~docv:"Q" ~doc:"Quantifier-rank budget.")
  in
  let max_free_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-free" ] ~docv:"N"
          ~doc:"Free-variable budget (the paper's k + l).")
  in
  let radius_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "radius" ] ~docv:"R"
          ~doc:
            "Demand syntactic r-locality in the Gaifman sense (FO only): \
             every quantifier must be relativised to the r-neighbourhood \
             of the interface variables.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("json", `Json); ("sarif", `Sarif) ])
          `Human
      & info [ "format" ]
          ~doc:
            "Output format: $(b,human), $(b,json), or $(b,sarif) (SARIF \
             2.1.0, for code-scanning upload and editor ingestion).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat warnings as failures too.")
  in
  let cost_arg =
    Arg.(
      value & flag
      & info [ "cost" ]
          ~doc:
            "Emit the informational $(b,cost-metadata) hint for every FO \
             formula: quantifier rank, locality radius and Hintikka-table \
             bound, as a JSON message.")
  in
  let list_rules_arg =
    Arg.(
      value & flag
      & info [ "list-rules" ]
          ~doc:"Print every rule id, its severity and description, then exit.")
  in
  let run files formulas lang vocab alphabet free q max_free radius format
      strict list_rules cost =
    let open Analysis in
    if list_rules then begin
      List.iter
        (fun r ->
          Format.printf "%-20s %-8s %s@." r.Diagnostic.id
            (Diagnostic.severity_to_string r.Diagnostic.default_severity)
            r.Diagnostic.doc)
        Diagnostic.rules;
      0
    end
    else begin
      let vocab =
        match vocab with
        | None -> None
        | Some s -> (
            match Vocab.of_string s with
            | Ok v -> Some v
            | Error m ->
                usage "folearn lint: %s" m)
      in
      let allowed_free =
        Option.map
          (fun s ->
            String.split_on_char ',' s |> List.map String.trim
            |> List.filter (fun v -> v <> ""))
          free
      in
      let letters =
        let a = Option.value alphabet ~default:"ab" in
        List.init (String.length a) (fun i -> String.make 1 a.[i])
      in
      let sigma =
        Option.map (fun a -> String.length a) alphabet
      in
      let inputs =
        List.concat_map
          (fun path ->
            In_channel.with_open_text path In_channel.input_lines
            |> List.mapi (fun i line -> (Printf.sprintf "%s:%d" path (i + 1), line))
            |> List.filter (fun (_, line) ->
                   let line = String.trim line in
                   line <> "" && not (String.length line > 0 && line.[0] = '#')))
          files
        @ List.map (fun src -> ("--formula", src)) formulas
      in
      if inputs = [] then
        usage "folearn lint: no formulas given (FILE or --formula)";
      let parse_diag msg =
        [ Diagnostic.make ~rule:"parse-error" msg ]
      in
      let check_one (_, src) =
        match lang with
        | `Fo -> (
            match Fo.Parser.parse (String.trim src) with
            | f ->
                let ds =
                  Fo_check.check ?vocab ?allowed_free
                    ~budget:
                      (Fo_check.budget ?max_rank:q ?max_free ?radius ())
                    f
                in
                if cost then ds @ [ Fo_check.cost_diagnostic ?vocab f ]
                else ds
            | exception Fo.Parser.Parse_error m -> parse_diag m)
        | `Mso -> (
            match Mso.Parser.parse ~letters (String.trim src) with
            | f -> Mso_check.check_word ?sigma ?allowed_free ?max_rank:q f
            | exception Mso.Parser.Parse_error m -> parse_diag m)
        | `Trees -> (
            match Mso.Tree_parser.parse ~labels:letters (String.trim src) with
            | f -> Mso_check.check_tree ?sigma ?allowed_free ?max_rank:q f
            | exception Mso.Tree_parser.Parse_error m -> parse_diag m)
      in
      let results =
        List.map (fun input -> (input, check_one input)) inputs
      in
      let failing ds =
        Diagnostic.errors ds <> []
        || (strict && Diagnostic.warnings ds <> [])
      in
      (match format with
      | `Sarif ->
          print_string
            (Sarif.to_string
               (List.map (fun ((origin, _), ds) -> (origin, ds)) results));
          print_newline ()
      | `Json ->
          Format.printf "[%s]@."
            (String.concat ", "
               (List.map
                  (fun ((origin, src), ds) ->
                    Printf.sprintf
                      {|{"origin": %s, "formula": %s, "ok": %b, "diagnostics": %s}|}
                      (Diagnostic.json_string origin)
                      (Diagnostic.json_string (String.trim src))
                      (not (failing ds))
                      (Diagnostic.list_to_json ds))
                  results))
      | `Human ->
          List.iter
            (fun ((origin, src), ds) ->
              if ds <> [] then begin
                Format.printf "%s: %s@." origin (String.trim src);
                List.iter (fun d -> Format.printf "  %a@." Diagnostic.pp d) ds
              end)
            results;
          let count sel =
            List.fold_left
              (fun acc (_, ds) -> acc + List.length (sel ds))
              0 results
          in
          Format.printf
            "%d formulas: %d errors, %d warnings, %d hints@."
            (List.length results)
            (count Diagnostic.errors)
            (count Diagnostic.warnings)
            (count Diagnostic.hints));
      if List.exists (fun (_, ds) -> failing ds) results then 1 else 0
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse FO/MSO formulas: signature conformance, \
          scopes, paper budgets, locality, simplification hints.")
    Term.(
      const run $ files_arg $ formulas_arg $ lang_arg $ vocab_arg
      $ alphabet_arg $ free_arg $ q_arg $ max_free_arg $ radius_arg
      $ format_arg $ strict_arg $ list_rules_arg $ cost_arg)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A metrics snapshot (from $(b,--stats-json)) or a benchmark \
             telemetry file ($(b,BENCH_*.json)).")
  in
  let run path =
    let text = In_channel.with_open_text path In_channel.input_all in
    match Obs.Json.of_string text with
    | Error m ->
        Format.eprintf "folearn stats: %s: %s@." path m;
        2
    | Ok doc -> (
        (* BENCH_*.json wraps the snapshot under "metrics" beside the
           headline numbers; a bare snapshot is the document itself. *)
        let snap_json =
          match Obs.Json.member "metrics" doc with
          | Some m ->
              let field name conv = Option.bind (Obs.Json.member name doc) conv in
              (match field "experiment" Obs.Json.to_string_opt with
              | Some e -> Format.printf "experiment: %s@." e
              | None -> ());
              (match field "wall_time_s" Obs.Json.to_float_opt with
              | Some t -> Format.printf "wall time: %.3f s@." t
              | None -> ());
              (match field "model_check_calls" Obs.Json.to_int_opt with
              | Some n -> Format.printf "model-check calls: %d@." n
              | None -> ());
              (match field "hypotheses_enumerated" Obs.Json.to_int_opt with
              | Some n -> Format.printf "hypotheses enumerated: %d@." n
              | None -> ());
              m
          | None -> doc
        in
        match Obs.Metric.snapshot_of_json snap_json with
        | Ok snap ->
            Format.printf "%a" Obs.Metric.pp_snapshot snap;
            0
        | Error m ->
            Format.eprintf "folearn stats: %s: %s@." path m;
            2)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print a saved metrics snapshot or a BENCH_*.json \
          telemetry file.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* pulse                                                               *)
(* ------------------------------------------------------------------ *)

let pulse_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"A flight-recorder dump (from $(b,--fdr)) to decode.")
  in
  let addr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:
            "A live exporter to query instead: $(b,unix:PATH), \
             $(b,HOST:PORT) or $(b,:PORT), as given to \
             $(b,--metrics-addr).")
  in
  let endpoint_arg =
    Arg.(
      value & opt string "/progress"
      & info [ "endpoint" ] ~docv:"PATH"
          ~doc:
            "Endpoint to fetch with $(b,--addr): /progress (default), \
             /metrics, /metrics.json or /healthz.")
  in
  let run file addr endpoint =
    match (file, addr) with
    | Some path, _ -> (
        match Pulse.Fdr.load path with
        | Ok d ->
            Format.printf "%a" Pulse.Fdr.pp d;
            0
        | Error m ->
            Format.eprintf "folearn pulse: %s: %s@." path m;
            2)
    | None, Some spec -> (
        match Pulse.Addr.parse spec with
        | Error m ->
            Format.eprintf "folearn pulse: --addr %s@." m;
            2
        | Ok a -> (
            match Pulse.Client.get a endpoint with
            | Error m ->
                Format.eprintf "folearn pulse: %s@." m;
                1
            | Ok body -> (
                (* JSON objects print one member per line; everything
                   else (Prometheus text, healthz) passes through *)
                match Obs.Json.of_string body with
                | Ok (Obs.Json.Obj members) ->
                    List.iter
                      (fun (key, v) ->
                        Format.printf "%-16s %s@." key (Obs.Json.to_string v))
                      members;
                    0
                | _ ->
                    print_string body;
                    0)))
    | None, None ->
        Format.eprintf
          "folearn pulse: give a flight-recorder FILE or --addr@.";
        2
  in
  Cmd.v
    (Cmd.info "pulse"
       ~doc:
         "Decode a flight-recorder dump, or query a live \
          $(b,--metrics-addr) exporter.")
    Term.(const run $ file_arg $ addr_arg $ endpoint_arg)

(* ------------------------------------------------------------------ *)
(* serve / call / submit / poll: the resident service (folserve)       *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let listen_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Where to accept requests: $(b,unix:PATH), $(b,HOST:PORT) or \
             $(b,:PORT).")
  in
  let tenant_arg =
    Arg.(
      value & opt_all string []
      & info [ "tenant" ] ~docv:"NAME:QUOTA"
          ~doc:
            "Per-tenant admission quota (repeatable): \
             $(b,NAME:fuel=N,deadline=S,table=N,ball=N), every term \
             optional.  Requests are clamped to their tenant's quota; \
             $(b,*) sets the default for unlisted tenants.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 32
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bounded request queue depth; a full queue sheds the \
             earliest-deadline request with an $(b,overloaded) response.")
  in
  let job_dir_arg =
    Arg.(
      value & opt string "folearn-jobs"
      & info [ "job-dir" ] ~docv:"DIR"
          ~doc:
            "Durable job table and snapshots; a restarted server resumes \
             unfinished jobs from here.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connection cap; excess connects are refused \
                $(b,overloaded).")
  in
  let run listen tenants queue_cap job_dir max_conns jobs metrics_addr =
    let tenants =
      List.map
        (fun spec ->
          match Serve.Tenant.parse spec with
          | Ok kv -> kv
          | Error m ->
              usage "folearn serve: --tenant %s" m)
        tenants
    in
    let engine_jobs =
      match jobs with
      | None -> 1
      | Some n when n >= 1 -> n
      | Some n ->
          usage "folearn serve: --jobs must be >= 1 (got %d)" n
    in
    let cfg =
      {
        Serve.Daemon.listen = addr_of_spec ~cmd:"serve" ~flag:"--listen" listen;
        tenants = Serve.Tenant.make tenants;
        queue_cap;
        job_dir;
        max_conns;
        engine_jobs;
        metrics_addr =
          Option.map
            (addr_of_spec ~cmd:"serve" ~flag:"--metrics-addr")
            metrics_addr;
      }
    in
    match Serve.Daemon.run cfg with
    | Ok code -> code
    | Error m ->
        Format.eprintf "folearn serve: %s@." m;
        1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident learning service: warm shared state, \
          per-tenant admission control, bounded queue with load \
          shedding, resumable jobs, graceful drain on SIGTERM.")
    Term.(
      const run $ listen_arg $ tenant_arg $ queue_cap_arg $ job_dir_arg
      $ max_conns_arg $ jobs_arg $ metrics_addr_arg)

(* client side: one request per invocation, framed over the socket;
   the response's stdout/stderr/code reproduce the one-shot CLI *)

let connect_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:PATH), $(b,HOST:PORT) or $(b,:PORT), \
           as given to $(b,folearn serve --listen).")

let rpc_tenant_arg =
  Arg.(
    value & opt string "anon"
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:"Tenant to bill this request to (admission quotas apply).")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry up to $(docv) times, with exponential backoff, when the \
           server answers $(b,overloaded) or $(b,draining) (exit 75) or \
           the connection fails.")

let backoff_arg =
  Arg.(
    value & opt float 0.2
    & info [ "backoff" ] ~docv:"SECONDS"
        ~doc:"Initial retry backoff; doubles per attempt.")

let rpc_timeout_arg =
  Arg.(
    value & opt float 60.0
    & info [ "rpc-timeout" ] ~docv:"SECONDS"
        ~doc:"Socket receive timeout while waiting for the response.")

let budget_req_of { fuel; timeout; max_table; max_ball } =
  { Serve.Proto.fuel; deadline_s = timeout; max_table; max_ball }

let rpc_with_retries ~cmd ~connect ~retries ~backoff ~timeout_s req =
  let addr = addr_of_spec ~cmd ~flag:"--connect" connect in
  let rec attempt i sleep =
    let retryable () =
      if i < retries then begin
        Unix.sleepf sleep;
        attempt (i + 1) (sleep *. 2.0)
      end
      else None
    in
    match
      Serve.Client.rpc ~timeout_s addr (Serve.Proto.request_to_json req)
    with
    | Error m -> (
        match retryable () with
        | Some r -> Some r
        | None ->
            Format.eprintf "folearn %s: %s@." cmd m;
            None)
    | Ok resp ->
        if Serve.Proto.resp_code resp = Serve.Proto.exit_retry then
          match retryable () with Some r -> Some r | None -> Some resp
        else Some resp
  in
  attempt 0 backoff

(* replay the remote run locally: its stdout to stdout, stderr to
   stderr, its status code as the exit code *)
let render_response resp =
  print_string (Serve.Proto.resp_stdout resp);
  prerr_string (Serve.Proto.resp_stderr resp);
  flush stdout;
  flush stderr;
  Serve.Proto.resp_code resp

(* op parameter flags, shared by call and submit; only flags the user
   actually gave are sent, so server-side defaults match the CLI's *)

let p_graph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"SPEC"
        ~doc:"Background graph spec (same DSL as the local commands).")

let p_colors_arg =
  Arg.(
    value & opt_all string []
    & info [ "c"; "color" ] ~docv:"NAME=V,V"
        ~doc:"Add a colour class (repeatable).")

let p_target_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "target" ] ~docv:"FORMULA" ~doc:"Target formula (learn).")

let p_formula_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "formula" ] ~docv:"FORMULA" ~doc:"Formula to check (mc).")

let p_k_arg =
  Arg.(value & opt (some int) None & info [ "k" ] ~docv:"N" ~doc:"Arity.")

let p_ell_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "l"; "ell" ] ~docv:"N" ~doc:"Quantifier budget (learn).")

let p_q_arg =
  Arg.(
    value & opt (some int) None & info [ "q" ] ~docv:"N" ~doc:"Quantifier rank.")

let p_solver_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "solver" ] ~docv:"NAME" ~doc:"brute, nd, counting or local.")

let p_tmax_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tmax" ] ~docv:"N" ~doc:"Counting-solver threshold cap.")

let p_noise_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "noise" ] ~docv:"P" ~doc:"Label-flip probability (learn).")

let p_m_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "m" ] ~docv:"N" ~doc:"Sample size; 0 = all tuples (learn).")

let p_seed_arg =
  Arg.(
    value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"Sample seed.")

let p_via_erm_arg =
  Arg.(
    value & flag & info [ "via-erm" ] ~doc:"Model-check through the ERM \
                                            reduction (mc).")

let p_hintikka_arg =
  Arg.(
    value & flag & info [ "hintikka" ] ~doc:"Print Hintikka formulas (types).")

let p_r_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "r" ] ~docv:"N" ~doc:"Splitter-game radius (game).")

let params_json ~graph ~colors ~target ~formula ~k ~ell ~q ~solver ~tmax
    ~noise ~m ~seed ~via_erm ~hintikka ~r =
  let add name v acc =
    match v with Some x -> (name, x) :: acc | None -> acc
  in
  let open Obs.Json in
  []
  |> add "graph" (Option.map (fun s -> String s) graph)
  |> (fun acc ->
       if colors = [] then acc
       else ("colors", List (List.map (fun s -> String s) colors)) :: acc)
  |> add "target" (Option.map (fun s -> String s) target)
  |> add "formula" (Option.map (fun s -> String s) formula)
  |> add "k" (Option.map (fun n -> Int n) k)
  |> add "ell" (Option.map (fun n -> Int n) ell)
  |> add "q" (Option.map (fun n -> Int n) q)
  |> add "solver" (Option.map (fun s -> String s) solver)
  |> add "tmax" (Option.map (fun n -> Int n) tmax)
  |> add "noise" (Option.map (fun f -> Float f) noise)
  |> add "m" (Option.map (fun n -> Int n) m)
  |> add "seed" (Option.map (fun n -> Int n) seed)
  |> (fun acc -> if via_erm then ("via_erm", Bool true) :: acc else acc)
  |> (fun acc -> if hintikka then ("hintikka", Bool true) :: acc else acc)
  |> add "r" (Option.map (fun n -> Int n) r)
  |> List.rev
  |> fun l -> Obj l

let params_term =
  let mk graph colors target formula k ell q solver tmax noise m seed via_erm
      hintikka r =
    params_json ~graph ~colors ~target ~formula ~k ~ell ~q ~solver ~tmax
      ~noise ~m ~seed ~via_erm ~hintikka ~r
  in
  Term.(
    const mk $ p_graph_arg $ p_colors_arg $ p_target_arg $ p_formula_arg
    $ p_k_arg $ p_ell_arg $ p_q_arg $ p_solver_arg $ p_tmax_arg $ p_noise_arg
    $ p_m_arg $ p_seed_arg $ p_via_erm_arg $ p_hintikka_arg $ p_r_arg)

let call_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP" ~doc:"learn, mc, types, game or ping.")
  in
  let run op connect tenant retries backoff timeout_s budget params =
    let req =
      {
        Serve.Proto.tenant;
        op;
        budget = budget_req_of budget;
        params;
      }
    in
    match
      rpc_with_retries ~cmd:"call" ~connect ~retries ~backoff ~timeout_s req
    with
    | None -> 1
    | Some resp -> render_response resp
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Run one op on a resident $(b,folearn serve) and replay its \
          stdout/stderr/exit code locally.")
    Term.(
      const run $ op_arg $ connect_arg $ rpc_tenant_arg $ retries_arg
      $ backoff_arg $ rpc_timeout_arg $ budget_term $ params_term)

let submit_cmd =
  let run connect tenant retries backoff timeout_s budget params =
    let req =
      {
        Serve.Proto.tenant;
        op = "submit";
        budget = budget_req_of budget;
        params;
      }
    in
    match
      rpc_with_retries ~cmd:"submit" ~connect ~retries ~backoff ~timeout_s req
    with
    | None -> 1
    | Some resp ->
        prerr_string (Serve.Proto.resp_stderr resp);
        (match
           Option.bind
             (Obs.Json.member "job" resp)
             (Obs.Json.member "id")
         with
        | Some (Obs.Json.String id) ->
            let status = Serve.Proto.resp_status resp in
            Printf.printf "folearn submit: job %s %s\n" id status
        | _ -> ());
        flush stdout;
        flush stderr;
        Serve.Proto.resp_code resp
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a learn as a resumable server-side job; poll it with \
          $(b,folearn poll).  Submitting identical work is idempotent.")
    Term.(
      const run $ connect_arg $ rpc_tenant_arg $ retries_arg $ backoff_arg
      $ rpc_timeout_arg $ budget_term $ params_term)

let poll_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOB"
          ~doc:"Job id, as printed by $(b,folearn submit).")
  in
  let wait_arg =
    Arg.(
      value & opt float 0.0
      & info [ "wait" ] ~docv:"SECONDS"
          ~doc:
            "Keep polling until the job settles or $(docv) elapse \
             (0 = ask once).")
  in
  let run id connect tenant retries backoff timeout_s wait =
    let req =
      {
        Serve.Proto.tenant;
        op = "poll";
        budget = Serve.Proto.no_budget;
        params = Obs.Json.Obj [ ("id", Obs.Json.String id) ];
      }
    in
    let pending resp =
      match Serve.Proto.resp_status resp with
      | "queued" | "running" -> true
      | _ -> false
    in
    let deadline = Unix.gettimeofday () +. wait in
    let rec ask () =
      match
        rpc_with_retries ~cmd:"poll" ~connect ~retries ~backoff ~timeout_s req
      with
      | None -> None
      | Some resp ->
          if pending resp && Unix.gettimeofday () < deadline then begin
            Unix.sleepf 0.2;
            ask ()
          end
          else Some resp
    in
    match ask () with
    | None -> 1
    | Some resp ->
        if pending resp then begin
          Format.eprintf "folearn poll: job %s still %s@." id
            (Serve.Proto.resp_status resp);
          0
        end
        else render_response resp
  in
  Cmd.v
    (Cmd.info "poll"
       ~doc:
         "Fetch a submitted job's result (or best-so-far status).  A \
          stale or foreign job id yields a structured \
          $(b,job_mismatch).")
    Term.(
      const run $ id_arg $ connect_arg $ rpc_tenant_arg $ retries_arg
      $ backoff_arg $ rpc_timeout_arg $ wait_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "learning first-order queries (PODS 2022 reproduction)" in
  let info = Cmd.info "folearn" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            learn_cmd; plan_cmd; mc_cmd; types_cmd; game_cmd; graph_cmd;
            strings_cmd; trees_cmd; lint_cmd; stats_cmd; pulse_cmd;
            serve_cmd; call_cmd; submit_cmd; poll_cmd;
          ]))
