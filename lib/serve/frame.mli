(** Length-framed, CRC'd JSON frames for the folserve RPC socket.

    One frame is one ASCII header line followed by the body and a
    trailing newline:
    {v FOLEARNRPC1 <crc32-hex> <body-length>
<body JSON>
v}
    This is the {!Resil.Frame} codec shared with the snapshots, fleet
    leases and flight-recorder dumps (CRC-32 of the body, verifiable
    externally with [zlib.crc32]), so a harness can validate any
    durable or on-wire artefact of this codebase with one checksum
    routine.

    Both sides enforce a frame cap: a peer announcing a body longer
    than [max_len] is cut off before any allocation, so a corrupt or
    malicious length field cannot balloon the daemon. *)

val magic : string

val default_max_len : int
(** 8 MiB: comfortably above any hypothesis or stats payload. *)

val encode : Obs.Json.t -> string
(** The full frame bytes for a JSON body. *)

val decode : ?max_len:int -> string -> (Obs.Json.t, string) result
(** Validate magic, header shape, length, cap and CRC, then parse the
    body.  [decode ?max_len (encode j) = Ok j] whenever
    [String.length (Obs.Json.to_string j) <= max_len]. *)

val read : ?max_len:int -> Unix.file_descr -> (Obs.Json.t, [ `Eof | `Error of string ]) result
(** Read exactly one frame from a socket.  [`Eof] when the peer closed
    before the first header byte (a clean disconnect); [`Error] on a
    malformed or oversized frame, a mid-frame EOF, or a socket error. *)

val write : Unix.file_descr -> Obs.Json.t -> (unit, string) result
(** Write one frame; EPIPE/ECONNRESET surface as [Error] (the peer
    hung up), never as an exception. *)
