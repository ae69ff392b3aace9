(* Lease files: see the .mli for the protocol.  The framing reuses
   [Resil]'s header + CRC discipline so external harnesses can validate
   a lease with nothing but zlib.crc32, and the atomic-claim primitive
   is link(2): creating a hard link fails with EEXIST when the target
   exists, which rename(2) does not. *)

let magic = "FOLEARNLEASE1"
let schema_version = 1

type t = {
  chunk : int;
  lo : int;
  hi : int;
  worker : string;
  pid : int;
  fence : int;
  deadline : float;
}

let to_json l =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int schema_version);
      ("chunk", Obs.Json.Int l.chunk);
      ("lo", Obs.Json.Int l.lo);
      ("hi", Obs.Json.Int l.hi);
      ("worker", Obs.Json.String l.worker);
      ("pid", Obs.Json.Int l.pid);
      ("fence", Obs.Json.Int l.fence);
      ("deadline", Obs.Json.Float l.deadline);
    ]

let of_json j =
  let open Obs.Json in
  let int_field name =
    match Option.bind (member name j) to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or non-int field %S" name)
  in
  let ( let* ) = Result.bind in
  let* version = int_field "schema_version" in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* chunk = int_field "chunk" in
    let* lo = int_field "lo" in
    let* hi = int_field "hi" in
    let* worker =
      match Option.bind (member "worker" j) to_string_opt with
      | Some v -> Ok v
      | None -> Error "missing or non-string field \"worker\""
    in
    let* pid = int_field "pid" in
    let* fence = int_field "fence" in
    let* deadline =
      match Option.bind (member "deadline" j) to_float_opt with
      | Some v -> Ok v
      | None -> Error "missing or non-float field \"deadline\""
    in
    Ok { chunk; lo; hi; worker; pid; fence; deadline }

let encode l = Resil.Frame.encode ~magic (to_json l)
let decode data = Result.bind (Resil.Frame.decode ~magic data) of_json

(* unique temp names even for two claimants in one process *)
let claim_seq = Atomic.make 0

let write_file path data =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      let n = String.length data in
      let written = ref 0 in
      while !written < n do
        written :=
          !written + Unix.write_substring fd data !written (n - !written)
      done)

let claim ~path l =
  let tmp =
    Printf.sprintf "%s.claim.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add claim_seq 1)
  in
  write_file tmp (encode l);
  let won =
    match Unix.link tmp path with
    | () -> true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  (try Sys.remove tmp with _ -> ());
  won

let renew ~path l = Resil.atomic_write ~fsync:false ~path (encode l)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Error `Not_found
  | data -> (
      match decode data with Ok l -> Ok l | Error e -> Error (`Corrupt e))

let release ~path ~mine =
  match load path with
  | Ok l
    when l.worker = mine.worker && l.pid = mine.pid && l.fence = mine.fence ->
      (try Unix.unlink path with _ -> ())
  | _ -> ()
