(** Crash-safe checkpoint/resume for in-flight learning runs.

    The learner's honest constants are towers in [q] — exactly the
    regime where a long ERM enumeration gets killed by the OS or the
    operator.  This module makes such runs {e crash-only}: a durable,
    versioned snapshot of the enumeration state is written on a
    configurable cadence, and a resumed run replays deterministically
    to an output bit-identical to the uninterrupted one.

    {b Snapshot format.}  One ASCII header line followed by a JSON
    body:
    {v FOLEARNSNAP1 <crc32-hex> <body-length>
<body JSON> v}
    The CRC is the standard IEEE/zlib polynomial over the body bytes
    (verifiable externally with [zlib.crc32]).  Writes are atomic:
    temp file, [fsync], [rename], best-effort directory [fsync] — a
    reader sees the previous snapshot or the new one, never a torn
    file.  Loads validate magic, length, CRC and schema version.

    {b Resume model.}  The snapshot stores the {e settled frontier}: a
    cursor [n] such that every candidate index [< n] was fully
    considered, plus the best candidate so far as an
    [(index, error-count)] pair.  A resumed solver re-enumerates the
    whole candidate stream — ticking [Guard] and the obs counters for
    every index, so telemetry and fuel accounting match the
    uninterrupted run — but skips the expensive per-candidate
    evaluation for indices below the cursor, except the recorded best
    index, which is re-evaluated to recover the winning hypothesis.
    First-best/lowest-index tie-breaking makes this sound: every
    skipped candidate compares lex-greater-or-equal to the recorded
    best on [(error, index)].

    {b Cadence.}  Snapshot writes trigger from the [Guard] tick hook,
    i.e. only on the budgeted tick path: an unbudgeted run gains no
    hot-path branch at all. *)

(** IEEE 802.3 / zlib CRC-32 (table-driven). *)
module Crc32 : sig
  val string : ?crc:int32 -> string -> int32
  (** [string s] is the CRC of [s]; pass [?crc] to continue a running
      checksum.  Matches Python's [zlib.crc32]. *)

  val to_hex : int32 -> string
  (** Fixed-width lowercase hex (8 digits). *)
end

val atomic_write : ?fsync:bool -> path:string -> string -> unit
(** [atomic_write ~path data] writes [data] to [path] via a temp file
    in the same directory, [fsync] (default [true]), and an atomic
    [rename].  Concurrent readers of [path] never observe a partial
    file. *)

(** The one codec of every durable or on-wire artefact — snapshots,
    fleet leases, flight-recorder dumps and RPC frames:
    {v MAGIC <crc32-hex> <body-length>
<body JSON>
v}
    The formats differ only in their magic (and the RPC socket adds a
    size cap and a terminator check on top). *)
module Frame : sig
  val encode : magic:string -> Obs.Json.t -> string
  (** The frame bytes for a JSON body. *)

  val parse_header : magic:string -> string -> (int * int, string) result
  (** [(crc, length)] of a header line (without its newline). *)

  val check_body : crc:int -> string -> (Obs.Json.t, string) result
  (** Verify the body's CRC, then parse it. *)

  val decode : magic:string -> string -> (Obs.Json.t, string) result
  (** Validate magic, header shape, length and CRC, then parse the
      body; bytes after the body are ignored.  Never raises. *)
end

(** The durable snapshot record and its codec. *)
module Snapshot : sig
  val schema_version : int
  val magic : string

  type t = {
    run_id : string;  (** digest of the run's defining parameters *)
    solver : string;  (** enumerator name: brute/counting/local/nd/... *)
    cursor : int;  (** settled frontier: every index [< cursor] is done *)
    best : (int * int) option;  (** best-so-far [(index, error count)] *)
    complete : bool;  (** the run finished; cursor covers everything *)
    writes : int;  (** snapshot writes so far, carried across resumes *)
    spent_fuel : int;  (** [Guard] fuel spent when written *)
    elapsed_ns : int64;  (** [Guard] budget wall time when written *)
    counters : (string * int) list;  (** obs counters at write time *)
  }

  val encode : t -> string
  val decode : string -> (t, string) result
  (** [decode (encode s) = Ok s]; any corruption of magic, length,
      CRC, JSON shape, or schema version yields [Error]. *)

  val save : path:string -> t -> unit
  (** Atomic durable write ({!atomic_write}); records an obs span
      ["resil.snapshot.save"] and bumps ["resil.snapshot_writes"]. *)

  val load : string -> (t, [ `Not_found | `Corrupt of string ]) result
  (** [`Not_found] when the file does not exist (a fresh run);
      [`Corrupt] carries the decode error. *)

  type mismatch = { field : string; expected : string; found : string }
  (** Which identity field of a loaded snapshot disagreed with the
      caller's run: [field] is ["run id"] or ["solver"]. *)

  val pp_mismatch : Format.formatter -> mismatch -> unit

  val load_for :
    run_id:string ->
    solver:string ->
    string ->
    (t, [ `Not_found | `Corrupt of string | `Mismatch of mismatch ]) result
  (** {!load} plus an identity check: a snapshot whose [run_id] or
      [solver] differs from the caller's yields [`Mismatch] naming the
      disagreeing field with both values — resuming it would silently
      replay-skip the wrong candidates.  Used by the CLI's [--resume]
      and by the fleet coordinator when validating published chunk
      results. *)
end

(** A per-run checkpoint controller, threaded through the [Erm_*]
    enumerators.  The inert value {!none} (the solvers' default) costs
    one boolean test per candidate. *)
module Ctl : sig
  type t

  val none : t
  (** Inert controller: {!should_eval} is always true, {!chunk_done}
      and {!flush} are no-ops. *)

  val create :
    ?path:string ->
    ?every:int ->
    ?interval_s:float ->
    ?budget:Guard.Budget.t ->
    ?resume:Snapshot.t ->
    run_id:string ->
    solver:string ->
    unit ->
    t
  (** An active controller.  [path] is where snapshots go (omitted =
      track the frontier but never write).  Cadence: a snapshot is due
      every [every] settled candidates (default: candidate cadence
      off) {e or} every [interval_s] seconds (default 2.0), whichever
      fires first.  [budget] supplies the [spent] fields.  [resume]
      seeds the skip cursor and best from a loaded snapshot; the
      [writes] count carries over. *)

  val observer : run_id:string -> solver:string -> unit -> t
  (** A passive frontier tracker: {!chunk_done} maintains the settled
      frontier and best-so-far (read by the live [/progress] endpoint
      of [folearn.pulse]), but the controller is {e not} {!active} —
      nothing is ever written, {!should_eval} is always true, and
      solvers still run their admission prechecks. *)

  val active : t -> bool
  val resumed : t -> bool
  val resume_cursor : t -> int

  val best : t -> (int * int) option
  (** Best-so-far [(index, error count)] reported through
      {!chunk_done}, for live progress export. *)

  val should_eval : t -> int -> bool
  (** Must candidate [i] be evaluated (rather than replay-skipped)?
      True for every index at or past the resume cursor, and for the
      resumed best index (re-evaluated to recover the hypothesis). *)

  val chunk_done : t -> lo:int -> hi:int -> best:(int * int) option -> unit
  (** Report indices [\[lo, hi)] settled (evaluated {e or} skipped)
      and the caller's current best as [(index, error count)].
      Out-of-order chunks park until the frontier reaches them. *)

  val frontier : t -> int
  (** The current settled frontier. *)

  val writes : t -> int
  (** Snapshot writes so far (including resumed-from runs). *)

  val flush : ?complete:bool -> t -> unit
  (** Force a snapshot write now (no-op when inert or pathless).  The
      CLI flushes on completion ([~complete:true]), exhaustion, and
      interrupt. *)

  val with_attached : t -> (unit -> 'a) -> 'a
  (** Install this controller's cadence hook ({!Guard.set_tick_hook})
      around the thunk; always uninstalls.  Transparent when inert or
      pathless. *)
end
