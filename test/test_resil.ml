(* Tests for folearn.resil: the crash-safe checkpoint/resume layer.

   - CRC-32 against the published zlib check value;
   - a QCheck codec round-trip (decode . encode = id) plus rejection
     of corrupted bytes, truncation and a bad magic;
   - atomic save/load through a temp file, [`Not_found] on a missing
     path;
   - the Ctl frontier: out-of-order chunks park until the gap closes,
     the recorded best is lex-min monotone, and should_eval implements
     the replay-skip contract;
   - Guard integration: an interrupt becomes an [Interrupted] trip and
     the tick hook fires only under a budget;
   - in-process resume equality: a fuel-tripped solver run, resumed
     from its flushed snapshot, reproduces the uninterrupted result
     bit-identically (pool sizes 1 and 4). *)

open Cgraph
module Sam = Folearn.Sample
module Brute = Folearn.Erm_brute
module Counting = Folearn.Erm_counting
module Local = Folearn.Erm_local
module Hyp = Folearn.Hypothesis
module Snap = Resil.Snapshot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool ~jobs f =
  let pool = Par.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let sample_on g centre =
  Sam.label_with g
    ~target:(fun v -> Bfs.dist g v.(0) centre <= 1)
    (Sam.all_tuples g ~k:1)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let crc32_known () =
  (* the IEEE 802.3 check value: crc32("123456789") = 0xCBF43926 *)
  check "zlib check value" true
    (Resil.Crc32.to_hex (Resil.Crc32.string "123456789") = "cbf43926");
  check "empty string" true (Resil.Crc32.string "" = 0l);
  (* running continuation equals one-shot *)
  check "incremental" true
    (Resil.Crc32.string ~crc:(Resil.Crc32.string "1234") "56789"
    = Resil.Crc32.string "123456789")

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                      *)
(* ------------------------------------------------------------------ *)

let snapshot_arb =
  let open QCheck in
  let gen =
    let open Gen in
    let* run_id = string_size ~gen:printable (0 -- 40) in
    let* solver = oneofl [ "brute"; "counting"; "local"; "nd"; "mc" ] in
    let* cursor = 0 -- 10_000 in
    let* best =
      oneof [ return None; map2 (fun i e -> Some (i, e)) (0 -- 1000) (0 -- 50) ]
    in
    let* complete = bool in
    let* writes = 0 -- 500 in
    let* spent_fuel = 0 -- 1_000_000 in
    let* elapsed = map Int64.of_int (0 -- 1_000_000_000) in
    let* counters =
      list_size (0 -- 4)
        (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 8)) (0 -- 9999))
    in
    return
      {
        Snap.run_id;
        solver;
        cursor;
        best;
        complete;
        writes;
        spent_fuel;
        elapsed_ns = elapsed;
        counters;
      }
  in
  QCheck.make gen

let codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"snapshot codec: decode . encode = id"
    snapshot_arb
    (fun s -> Snap.decode (Snap.encode s) = Ok s)

let sample_snapshot =
  {
    Snap.run_id = "cafe01";
    solver = "brute";
    cursor = 7;
    best = Some (3, 1);
    complete = false;
    writes = 2;
    spent_fuel = 123;
    elapsed_ns = 456789L;
    counters = [ ("erm.hypotheses_enumerated", 7) ];
  }

let corruption_rejected () =
  let enc = Snap.encode sample_snapshot in
  (* flip one body byte: the CRC must catch it *)
  let flipped =
    let b = Bytes.of_string enc in
    let i = String.index enc '{' + 2 in
    Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
    Bytes.to_string b
  in
  check "flipped byte rejected" true (Result.is_error (Snap.decode flipped));
  check "truncation rejected" true
    (Result.is_error (Snap.decode (String.sub enc 0 (String.length enc - 3))));
  let bad_magic = "X" ^ String.sub enc 1 (String.length enc - 1) in
  check "bad magic rejected" true (Result.is_error (Snap.decode bad_magic));
  check "empty rejected" true (Result.is_error (Snap.decode ""))

(* The four frame decoders (snapshot, fleet lease, flight-recorder
   dump, RPC frame) all sit on Resil.Frame.  Each must answer [Error],
   and never raise, on arbitrary bytes, on its own magic followed by
   arbitrary header fields (a correct CRC included, so the body parser
   sees junk too), and on a one-byte corruption of a valid frame.  The
   trailing newline the three file formats do not check, and a case
   flip (hex digits are case-blind), are not corruptions. *)
let frame_decoders =
  let rejects decode s = Result.is_error (decode s) in
  [
    ( Snap.magic,
      rejects Snap.decode,
      Snap.encode sample_snapshot,
      false );
    ( Fleet.Lease.magic,
      rejects Fleet.Lease.decode,
      Fleet.Lease.encode
        {
          Fleet.Lease.chunk = 3; lo = 30; hi = 40; worker = "w1"; pid = 123;
          fence = 2; deadline = 99.5;
        },
      false );
    ( Pulse.Fdr.magic,
      rejects Pulse.Fdr.decode,
      Pulse.Fdr.encode (Pulse.Fdr.capture ~reason:"qcheck"),
      false );
    ( Serve.Frame.magic,
      rejects (fun s -> Serve.Frame.decode s),
      Serve.Frame.encode
        (Obs.Json.Obj [ ("op", Obs.Json.String "ping"); ("n", Obs.Json.Int 7) ]),
      true );
  ]

let frames_reject_arbitrary_bytes =
  QCheck.Test.make ~count:1000 ~name:"frame decoders reject arbitrary bytes"
    QCheck.string
    (fun s -> List.for_all (fun (_, rejects, _, _) -> rejects s) frame_decoders)

let frames_reject_arbitrary_headers =
  let gen =
    QCheck.Gen.(
      quad (string_size ~gen:printable (0 -- 10)) (-50 -- 200) bool
        (string_size (0 -- 120)))
  in
  QCheck.Test.make ~count:1000
    ~name:"frame decoders reject their magic with arbitrary fields"
    (QCheck.make gen) (fun (crc, len, true_crc, body) ->
      List.for_all
        (fun (magic, rejects, _, _) ->
          let crc =
            if true_crc then Resil.Crc32.to_hex (Resil.Crc32.string body)
            else crc
          in
          rejects (Printf.sprintf "%s %s %d\n%s\n" magic crc len body))
        frame_decoders)

let frames_reject_one_byte_corruption =
  QCheck.Test.make ~count:2000
    ~name:"frame decoders reject one-byte corruptions"
    QCheck.(pair (int_bound 100_000) char)
    (fun (i, c) ->
      List.for_all
        (fun (_, rejects, frame, terminated) ->
          let checked =
            String.length frame - if terminated then 0 else 1
          in
          let i = i mod checked in
          Char.lowercase_ascii c = Char.lowercase_ascii frame.[i]
          || rejects
               (String.mapi (fun j ch -> if j = i then c else ch) frame))
        frame_decoders)

let save_load_roundtrip () =
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Snap.save ~path sample_snapshot;
  (match Snap.load path with
  | Ok s -> check "loaded = saved" true (s = sample_snapshot)
  | Error _ -> Alcotest.fail "load of a fresh save failed");
  Sys.remove path;
  (match Snap.load path with
  | Error `Not_found -> ()
  | Ok _ | Error (`Corrupt _) ->
      Alcotest.fail "missing file must load as `Not_found")

let astr_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* [load_for] layers identity checks over [load]: a snapshot from a
   different run or solver is a structured [`Mismatch] naming the
   field with both values (the CLI renders it with a fresh-checkpoint
   hint), never a silent replay-skip of the wrong candidates. *)
let load_for_mismatch () =
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Snap.save ~path sample_snapshot;
  (match Snap.load_for ~run_id:"cafe01" ~solver:"brute" path with
  | Ok s -> check "matching identity loads" true (s = sample_snapshot)
  | Error _ -> Alcotest.fail "matching identity must load");
  (match Snap.load_for ~run_id:"deadbf" ~solver:"brute" path with
  | Error (`Mismatch m) ->
      check "field names the run id" true (m.Snap.field = "run id");
      check "expected side" true (m.Snap.expected = "deadbf");
      check "found side" true (m.Snap.found = "cafe01");
      let rendered = Format.asprintf "%a" Snap.pp_mismatch m in
      check "rendering names both ids" true
        (String.length rendered > 0
        && astr_contains rendered "deadbf"
        && astr_contains rendered "cafe01")
  | Ok _ | Error (`Not_found | `Corrupt _) ->
      Alcotest.fail "wrong run id must be `Mismatch");
  (match Snap.load_for ~run_id:"cafe01" ~solver:"counting" path with
  | Error (`Mismatch m) -> check "solver mismatch" true (m.Snap.field = "solver")
  | _ -> Alcotest.fail "wrong solver must be `Mismatch");
  Sys.remove path;
  match Snap.load_for ~run_id:"cafe01" ~solver:"brute" path with
  | Error `Not_found -> ()
  | _ -> Alcotest.fail "missing file stays `Not_found through load_for"

let atomic_write_replaces () =
  let path = Filename.temp_file "folearn_resil" ".txt" in
  Resil.atomic_write ~path "first";
  Resil.atomic_write ~fsync:false ~path "second";
  let content = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check "last write wins, whole" true (content = "second")

(* ------------------------------------------------------------------ *)
(* Ctl: frontier, best, should_eval                                    *)
(* ------------------------------------------------------------------ *)

let frontier_out_of_order () =
  let c = Resil.Ctl.create ~run_id:"t" ~solver:"s" () in
  Resil.Ctl.chunk_done c ~lo:5 ~hi:10 ~best:None;
  check_int "out-of-order chunk parks" 0 (Resil.Ctl.frontier c);
  Resil.Ctl.chunk_done c ~lo:0 ~hi:5 ~best:(Some (2, 3));
  check_int "gap closes, parked chunk absorbed" 10 (Resil.Ctl.frontier c);
  Resil.Ctl.chunk_done c ~lo:12 ~hi:14 ~best:None;
  Resil.Ctl.chunk_done c ~lo:10 ~hi:12 ~best:None;
  check_int "second gap closes" 14 (Resil.Ctl.frontier c)

let should_eval_contract () =
  let snap = { sample_snapshot with Snap.cursor = 10; best = Some (4, 2) } in
  let c = Resil.Ctl.create ~resume:snap ~run_id:"t" ~solver:"s" () in
  check "resumed" true (Resil.Ctl.resumed c);
  check_int "resume cursor" 10 (Resil.Ctl.resume_cursor c);
  check "below cursor replay-skipped" false (Resil.Ctl.should_eval c 3);
  check "recorded best re-evaluated" true (Resil.Ctl.should_eval c 4);
  check "at cursor evaluated" true (Resil.Ctl.should_eval c 10);
  check "past cursor evaluated" true (Resil.Ctl.should_eval c 11);
  check "inert evaluates everything" true
    (Resil.Ctl.should_eval Resil.Ctl.none 0)

(* ------------------------------------------------------------------ *)
(* Guard integration                                                   *)
(* ------------------------------------------------------------------ *)

let interrupt_trips () =
  Guard.clear_interrupt ();
  let outcome =
    Guard.run
      ~budget:(Guard.Budget.unlimited ())
      ~salvage:(fun () -> Some 99)
      (fun () ->
        Guard.interrupt ();
        Guard.tick Guard.Solver_loop;
        41)
  in
  (match outcome with
  | Guard.Exhausted
      { reason = Guard.Interrupted; best_so_far = Some 99; _ } ->
      ()
  | Guard.Complete _ -> Alcotest.fail "interrupt did not trip"
  | Guard.Exhausted { reason; _ } ->
      Alcotest.failf "wrong reason %s" (Guard.reason_to_string reason));
  (* the flag is sticky across the trip until cleared *)
  check "still requested" true (Guard.interrupt_requested ());
  Guard.clear_interrupt ();
  check "cleared" false (Guard.interrupt_requested ())

let hook_fires_only_under_budget () =
  let calls = ref 0 in
  Guard.set_tick_hook (Some (fun () -> incr calls));
  Fun.protect
    ~finally:(fun () -> Guard.set_tick_hook None)
    (fun () ->
      Guard.tick Guard.Solver_loop;
      check_int "unbudgeted tick skips the hook" 0 !calls;
      (match
         Guard.run
           ~budget:(Guard.Budget.unlimited ())
           ~salvage:(fun () -> None)
           (fun () ->
             Guard.tick Guard.Solver_loop;
             Guard.tick Guard.Solver_loop)
       with
      | Guard.Complete () -> ()
      | Guard.Exhausted _ -> Alcotest.fail "unlimited budget tripped");
      check_int "budgeted ticks invoke the hook" 2 !calls)

(* ------------------------------------------------------------------ *)
(* Resume equality, in process                                         *)
(* ------------------------------------------------------------------ *)

(* Run the solver to completion, measure its total fuel, re-run under
   half that fuel so it trips mid-enumeration, flush a snapshot, and
   resume: the resumed Complete result must be bit-identical. *)
let resume_reproduces ~jobs ~solver_name ~solve_budgeted ~project () =
  with_pool ~jobs @@ fun pool ->
  let g = Gen.gnp ~seed:11 ~n:12 ~p:0.25 in
  let lam = sample_on g 6 in
  let full_budget = Guard.Budget.unlimited () in
  let plain =
    match solve_budgeted ?budget:(Some full_budget) ~pool ~ckpt:Resil.Ctl.none g lam with
    | Guard.Complete r -> r
    | Guard.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"
  in
  let total_fuel = (Guard.Budget.spent full_budget).Guard.fuel in
  let path = Filename.temp_file "folearn_resume" ".snap" in
  let ckpt =
    Resil.Ctl.create ~path ~every:1 ~run_id:"test" ~solver:solver_name ()
  in
  (match
     solve_budgeted
       ?budget:(Some (Guard.Budget.make ~fuel:(max 1 (total_fuel / 2)) ()))
       ~pool ~ckpt g lam
   with
  | Guard.Complete _ -> Alcotest.fail "half the fuel must trip"
  | Guard.Exhausted _ -> Resil.Ctl.flush ckpt);
  let snap =
    match Snap.load path with
    | Ok s -> s
    | Error _ -> Alcotest.fail "no snapshot after the tripped run"
  in
  let ckpt2 =
    Resil.Ctl.create ~path ~resume:snap ~run_id:"test" ~solver:solver_name ()
  in
  let resumed =
    match solve_budgeted ?budget:None ~pool ~ckpt:ckpt2 g lam with
    | Guard.Complete r -> r
    | Guard.Exhausted _ -> Alcotest.fail "resumed run exhausted"
  in
  Sys.remove path;
  check
    (Printf.sprintf "%s resumed = uninterrupted (jobs %d)" solver_name jobs)
    true
    (project resumed = project plain)

let resume_brute ~jobs =
  resume_reproduces ~jobs ~solver_name:"brute"
    ~solve_budgeted:(fun ?budget ~pool ~ckpt g lam ->
      Brute.solve_budgeted ?budget ~pool ~ckpt g ~k:1 ~ell:1 ~q:1 lam)
    ~project:(fun (r : Brute.result) ->
      (Hyp.signature r.Brute.hypothesis, r.Brute.err, r.Brute.params_tried))

let resume_counting ~jobs =
  resume_reproduces ~jobs ~solver_name:"counting"
    ~solve_budgeted:(fun ?budget ~pool ~ckpt g lam ->
      Counting.solve_budgeted ?budget ~pool ~ckpt g ~k:1 ~ell:1 ~q:1 ~tmax:2
        lam)
    ~project:(fun (r : Counting.result) ->
      ( Hyp.signature r.Counting.hypothesis,
        r.Counting.err,
        r.Counting.params_tried ))

let resume_local ~jobs =
  resume_reproduces ~jobs ~solver_name:"local"
    ~solve_budgeted:(fun ?budget ~pool ~ckpt g lam ->
      Local.solve_budgeted ?budget ~pool ~radius:1 ~ckpt g ~k:1 ~ell:1 ~q:1
        lam)
    ~project:(fun (r : Local.result) ->
      ( Hyp.signature r.Local.hypothesis,
        r.Local.err,
        (r.Local.params_tried, r.Local.pool_size) ))

let suite =
  [
    Alcotest.test_case "crc32 matches zlib" `Quick crc32_known;
    QCheck_alcotest.to_alcotest codec_roundtrip;
    Alcotest.test_case "corrupt snapshots rejected" `Quick corruption_rejected;
    QCheck_alcotest.to_alcotest frames_reject_arbitrary_bytes;
    QCheck_alcotest.to_alcotest frames_reject_arbitrary_headers;
    QCheck_alcotest.to_alcotest frames_reject_one_byte_corruption;
    Alcotest.test_case "save/load round-trip and `Not_found" `Quick
      save_load_roundtrip;
    Alcotest.test_case "load_for flags run/solver mismatch" `Quick
      load_for_mismatch;
    Alcotest.test_case "atomic_write replaces whole files" `Quick
      atomic_write_replaces;
    Alcotest.test_case "frontier absorbs out-of-order chunks" `Quick
      frontier_out_of_order;
    Alcotest.test_case "should_eval replay-skip contract" `Quick
      should_eval_contract;
    Alcotest.test_case "interrupt trips as Interrupted" `Quick interrupt_trips;
    Alcotest.test_case "tick hook fires only under a budget" `Quick
      hook_fires_only_under_budget;
    Alcotest.test_case "brute resume = uninterrupted (jobs 1)" `Quick
      (resume_brute ~jobs:1);
    Alcotest.test_case "brute resume = uninterrupted (jobs 4)" `Quick
      (resume_brute ~jobs:4);
    Alcotest.test_case "counting resume = uninterrupted (jobs 1)" `Quick
      (resume_counting ~jobs:1);
    Alcotest.test_case "local resume = uninterrupted (jobs 1)" `Quick
      (resume_local ~jobs:1);
  ]
