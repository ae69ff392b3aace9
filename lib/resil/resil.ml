(* Crash-safe checkpoint/resume for in-flight learning runs.  See the
   .mli for the contract; implementation notes:

   - The on-disk format is a one-line ASCII header followed by a JSON
     body: "FOLEARNSNAP1 <crc32-hex> <body-length>\n<body>\n".  The CRC
     is the standard IEEE/zlib polynomial over the body bytes, so an
     external harness can validate a snapshot with nothing but
     [zlib.crc32].
   - Durability is temp file + fsync + atomic rename (+ best-effort
     directory fsync): a reader sees either the previous snapshot or
     the new one, never a torn write.
   - [Ctl] keeps the settled-candidate frontier as the largest [n] such
     that every index [< n] has been reported by [chunk_done].  Chunks
     complete out of order under [Par]; intervals beyond the frontier
     park in a sorted pending list until the gap closes, so a resumed
     run never skips an index whose evaluation was lost with the
     crashed process.
   - Cadence rides the [Guard] tick hook: snapshot writes only ever
     trigger from the budgeted tick path, so the no-budget hot path
     gains no branch at all, and a strided countdown keeps the hook
     itself at two atomic operations per tick between cadence checks. *)

let snapshot_writes = Obs.Metric.counter "resil.snapshot_writes"
let snapshot_loads = Obs.Metric.counter "resil.snapshot_loads"

module Crc32 = struct
  (* table-driven IEEE 802.3 / zlib CRC-32 *)
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref (Int32.of_int n) in
           for _ = 0 to 7 do
             c :=
               if Int32.logand !c 1l <> 0l then
                 Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
               else Int32.shift_right_logical !c 1
           done;
           !c))

  let string ?(crc = 0l) s =
    let t = Lazy.force table in
    let c = ref (Int32.logxor crc (-1l)) in
    String.iter
      (fun ch ->
        let i =
          Int32.to_int
            (Int32.logand
               (Int32.logxor !c (Int32.of_int (Char.code ch)))
               0xFFl)
        in
        c := Int32.logxor t.(i) (Int32.shift_right_logical !c 8))
      s;
    Int32.logxor !c (-1l)

  let to_hex c = Printf.sprintf "%08lx" c
end

let atomic_write ?(fsync = true) ~path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     let n = String.length data in
     let written = ref 0 in
     while !written < n do
       written := !written + Unix.write_substring fd data !written (n - !written)
     done;
     if fsync then Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with _ -> ());
     (try Sys.remove tmp with _ -> ());
     raise e);
  Unix.rename tmp path;
  if fsync then (
    (* make the rename itself durable; failure only weakens durability,
       never atomicity, so it is best-effort *)
    match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
    | dfd ->
        (try Unix.fsync dfd with _ -> ());
        (try Unix.close dfd with _ -> ())
    | exception _ -> ())

module Frame = struct
  let encode ~magic j =
    let body = Obs.Json.to_string j in
    Printf.sprintf "%s %s %d\n%s\n" magic
      (Crc32.to_hex (Crc32.string body))
      (String.length body) body

  let parse_header ~magic header =
    match String.split_on_char ' ' header with
    | [ m; crc_hex; len_s ] when m = magic -> (
        match (int_of_string_opt ("0x" ^ crc_hex), int_of_string_opt len_s) with
        | Some crc, Some len when len >= 0 -> Ok (crc, len)
        | _ -> Error "malformed header fields")
    | m :: _ when m <> magic -> Error (Printf.sprintf "bad magic %S" m)
    | _ -> Error "malformed header line"

  let check_body ~crc body =
    let actual = Int32.to_int (Crc32.string body) land 0xFFFFFFFF in
    if actual <> crc land 0xFFFFFFFF then
      Error (Printf.sprintf "CRC mismatch (header %08x, body %08x)" crc actual)
    else
      match Obs.Json.of_string body with
      | Error e -> Error ("body is not JSON: " ^ e)
      | Ok j -> Ok j

  let decode ~magic data =
    match String.index_opt data '\n' with
    | None -> Error "missing header line"
    | Some nl ->
        Result.bind (parse_header ~magic (String.sub data 0 nl))
          (fun (crc, len) ->
            if String.length data < nl + 1 + len then Error "truncated body"
            else check_body ~crc (String.sub data (nl + 1) len))
end

module Snapshot = struct
  let schema_version = 1
  let magic = "FOLEARNSNAP1"

  type t = {
    run_id : string;
    solver : string;
    cursor : int;
    best : (int * int) option;
    complete : bool;
    writes : int;
    spent_fuel : int;
    elapsed_ns : int64;
    counters : (string * int) list;
  }

  let to_json s =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int schema_version);
        ("run_id", Obs.Json.String s.run_id);
        ("solver", Obs.Json.String s.solver);
        ("cursor", Obs.Json.Int s.cursor);
        ( "best",
          match s.best with
          | None -> Obs.Json.Null
          | Some (i, e) ->
              Obs.Json.Obj
                [ ("index", Obs.Json.Int i); ("errors", Obs.Json.Int e) ] );
        ("complete", Obs.Json.Bool s.complete);
        ("writes", Obs.Json.Int s.writes);
        ("spent_fuel", Obs.Json.Int s.spent_fuel);
        ("elapsed_ns", Obs.Json.Int (Int64.to_int s.elapsed_ns));
        ( "counters",
          Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) s.counters)
        );
      ]

  let of_json j =
    let open Obs.Json in
    let int_field name =
      match Option.bind (member name j) to_int_opt with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing or non-int field %S" name)
    in
    let str_field name =
      match Option.bind (member name j) to_string_opt with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing or non-string field %S" name)
    in
    let ( let* ) = Result.bind in
    let* version = int_field "schema_version" in
    if version <> schema_version then
      Error (Printf.sprintf "unsupported schema_version %d" version)
    else
      let* run_id = str_field "run_id" in
      let* solver = str_field "solver" in
      let* cursor = int_field "cursor" in
      let* best =
        match member "best" j with
        | None | Some Null -> Ok None
        | Some b -> (
            match
              ( Option.bind (member "index" b) to_int_opt,
                Option.bind (member "errors" b) to_int_opt )
            with
            | Some i, Some e -> Ok (Some (i, e))
            | _ -> Error "malformed \"best\" object")
      in
      let* complete =
        match member "complete" j with
        | Some (Bool b) -> Ok b
        | _ -> Error "missing or non-bool field \"complete\""
      in
      let* writes = int_field "writes" in
      let* spent_fuel = int_field "spent_fuel" in
      let* elapsed = int_field "elapsed_ns" in
      let* counters =
        match member "counters" j with
        | Some (Obj kvs) ->
            let rec conv acc = function
              | [] -> Ok (List.rev acc)
              | (k, Int v) :: rest -> conv ((k, v) :: acc) rest
              | (k, _) :: _ ->
                  Error (Printf.sprintf "non-int counter %S" k)
            in
            conv [] kvs
        | _ -> Error "missing or malformed \"counters\" object"
      in
      Ok
        {
          run_id;
          solver;
          cursor;
          best;
          complete;
          writes;
          spent_fuel;
          elapsed_ns = Int64.of_int elapsed;
          counters;
        }

  let encode s = Frame.encode ~magic (to_json s)
  let decode data = Result.bind (Frame.decode ~magic data) of_json

  let save ~path s =
    Obs.Span.with_ "resil.snapshot.save"
      ~args:[ ("cursor", string_of_int s.cursor) ]
    @@ fun () ->
    atomic_write ~path (encode s);
    Obs.Metric.incr snapshot_writes;
    Obs.Event.record ~kind:"resil"
      ~args:
        [
          ("path", path);
          ("cursor", string_of_int s.cursor);
          ("writes", string_of_int s.writes);
          ("complete", string_of_bool s.complete);
        ]
      "resil.snapshot.save"

  let load path =
    Obs.Span.with_ "resil.snapshot.load" @@ fun () ->
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> Error `Not_found
    | data -> (
        match decode data with
        | Ok s ->
            Obs.Metric.incr snapshot_loads;
            Ok s
        | Error e -> Error (`Corrupt e))

  type mismatch = { field : string; expected : string; found : string }

  let pp_mismatch ppf m =
    Format.fprintf ppf "snapshot %s mismatch: expected %s, found %s" m.field
      m.expected m.found

  (* Identity-checked load: resuming a snapshot written for a different
     run or by a different solver would silently replay-skip the wrong
     candidates, so the caller gets the exact field that disagrees
     instead of a generic failure string. *)
  let load_for ~run_id ~solver path =
    match load path with
    | Error (`Not_found | `Corrupt _) as e -> e
    | Ok s ->
        if s.run_id <> run_id then
          Error
            (`Mismatch { field = "run id"; expected = run_id; found = s.run_id })
        else if s.solver <> solver then
          Error
            (`Mismatch { field = "solver"; expected = solver; found = s.solver })
        else Ok s
end

module Ctl = struct
  let default_interval_s = 2.0

  (* strided cadence: the tick hook reads the clock only every
     [cadence_stride] surviving ticks.  The candidate cadence is two
     integer loads and must be checked on every hook call: a solver
     whose per-candidate work ticks rarely (e.g. counting types, which
     bypass the memo-table ticks) may pass fewer total ticks than one
     stride. *)
  let cadence_stride = 64

  type t = {
    active : bool;
    track : bool;  (* maintain the frontier/best, even when not active *)
    run_id : string;
    solver : string;
    path : string option;
    every : int;  (* candidate cadence; [max_int] = time-driven only *)
    interval_ns : int64;
    budget : Guard.Budget.t option;
    counter_names : string list;
    resume_cursor : int;
    resume_best : (int * int) option;
    resumed : bool;
    m : Mutex.t;  (* frontier / pending / best / writes *)
    mutable frontier : int;
    mutable pending : (int * int) list;  (* sorted disjoint [lo, hi) *)
    mutable best : (int * int) option;
    mutable writes : int;
    mutable last_write_frontier : int;
    mutable last_write_ns : int64;
    wm : Mutex.t;  (* serialises snapshot file writes *)
    stride : int Atomic.t;
  }

  let make ~active ?(track = active) ?path ?(every = max_int)
      ?(interval_s = default_interval_s) ?budget ?resume ~run_id ~solver () =
    let counter_names =
      [ "erm.hypotheses_enumerated"; "erm.consistency_checks" ]
    in
    {
      active;
      track;
      run_id;
      solver;
      path;
      every = max 1 every;
      interval_ns = Int64.of_float (Float.max 0.001 interval_s *. 1e9);
      budget;
      counter_names;
      resume_cursor =
        (match resume with Some (s : Snapshot.t) -> s.cursor | None -> 0);
      resume_best = (match resume with Some s -> s.best | None -> None);
      resumed = Option.is_some resume;
      m = Mutex.create ();
      frontier = 0;
      pending = [];
      best = None;
      writes = (match resume with Some s -> s.writes | None -> 0);
      last_write_frontier = 0;
      last_write_ns = Obs.Clock.now_ns ();
      wm = Mutex.create ();
      stride = Atomic.make cadence_stride;
    }

  let none = make ~active:false ~run_id:"" ~solver:"" ()

  let create ?path ?every ?interval_s ?budget ?resume ~run_id ~solver () =
    make ~active:true ?path ?every ?interval_s ?budget ?resume ~run_id ~solver
      ()

  (* A passive frontier tracker for live /progress reporting: it keeps
     the settled frontier and best-so-far that [chunk_done] reports but
     is not "active" — solvers still run their admission prechecks and
     never treat the run as checkpointed/resumable. *)
  let observer ~run_id ~solver () =
    make ~active:false ~track:true ~run_id ~solver ()

  let active t = t.active
  let resumed t = t.resumed
  let resume_cursor t = t.resume_cursor
  let writes t = t.writes
  let frontier t = t.frontier

  let best t =
    Mutex.lock t.m;
    let b = t.best in
    Mutex.unlock t.m;
    b

  let should_eval t i =
    (not t.active)
    || i >= t.resume_cursor
    || (match t.resume_best with Some (b, _) -> i = b | None -> false)

  (* lex-min on (errors, index): monotone under re-reporting, so a
     stale caller view can never regress the recorded best *)
  let merge_best t = function
    | None -> ()
    | Some (i, e) -> (
        match t.best with
        | Some (bi, be) when be < e || (be = e && bi <= i) -> ()
        | _ -> t.best <- Some (i, e))

  let rec absorb t =
    match t.pending with
    | (lo, hi) :: rest when lo <= t.frontier ->
        if hi > t.frontier then t.frontier <- hi;
        t.pending <- rest;
        absorb t
    | _ -> ()

  let rec insert_interval iv = function
    | [] -> [ iv ]
    | (lo, _) :: _ as rest when fst iv <= lo -> iv :: rest
    | head :: rest -> head :: insert_interval iv rest

  let chunk_done t ~lo ~hi ~best =
    if t.track && hi > lo then begin
      Mutex.lock t.m;
      merge_best t best;
      if lo <= t.frontier then begin
        if hi > t.frontier then t.frontier <- hi;
        absorb t
      end
      else t.pending <- insert_interval (lo, hi) t.pending;
      Mutex.unlock t.m
    end

  let assemble t ~complete =
    (* caller holds [t.m] *)
    t.writes <- t.writes + 1;
    let snap =
      {
        Snapshot.run_id = t.run_id;
        solver = t.solver;
        cursor = t.frontier;
        best = t.best;
        complete;
        writes = t.writes;
        spent_fuel =
          (match t.budget with
          | Some b -> (Guard.Budget.spent b).Guard.fuel
          | None -> 0);
        elapsed_ns =
          (match t.budget with
          | Some b -> (Guard.Budget.spent b).Guard.elapsed_ns
          | None -> 0L);
        counters =
          List.map
            (fun n -> (n, Obs.Metric.value (Obs.Metric.counter n)))
            t.counter_names;
      }
    in
    t.last_write_frontier <- t.frontier;
    t.last_write_ns <- Obs.Clock.now_ns ();
    snap

  (* caller holds [t.wm] *)
  let write_locked t ~complete =
    match t.path with
    | None -> ()
    | Some path ->
        Mutex.lock t.m;
        let snap = assemble t ~complete in
        Mutex.unlock t.m;
        Snapshot.save ~path snap

  let candidate_due t =
    t.every < max_int && t.frontier - t.last_write_frontier >= t.every

  let interval_due t =
    Int64.sub (Obs.Clock.now_ns ()) t.last_write_ns >= t.interval_ns

  let tick_hook t () =
    let due =
      candidate_due t
      ||
      if Atomic.fetch_and_add t.stride (-1) <= 0 then begin
        Atomic.set t.stride cadence_stride;
        interval_due t
      end
      else false
    in
    if due && t.path <> None && Mutex.try_lock t.wm then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.wm)
        (fun () -> try write_locked t ~complete:false with _ -> ())

  let flush ?(complete = false) t =
    if t.active && t.path <> None then begin
      Mutex.lock t.wm;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.wm)
        (fun () -> write_locked t ~complete)
    end

  let with_attached t f =
    if (not t.active) || t.path = None then f ()
    else begin
      Guard.set_tick_hook (Some (tick_hook t));
      Fun.protect ~finally:(fun () -> Guard.set_tick_hook None) f
    end
end
