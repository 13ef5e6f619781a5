(** Binary framing and codec for the service protocol.

    A frame is a little-endian [u32] payload length followed by the
    payload; every payload starts with the protocol version byte
    ({!version}) and a tag byte.  The operands use {!Util.Binio}, the
    codec every binary format shares: varint integers, length-prefixed
    strings and lists, one-byte option tags.  Fingerprints, seeds and
    inputs travel as decimal strings, floats as hexadecimal [%h]
    literals, so the wire image is architecture-independent and
    round-trips exactly.

    Decoders are total over the string codomain: arbitrary bytes yield
    [Error], never an exception.  Everything {!Util.Binio} rejects
    (overlong or overflowing varints, lengths past the input, option tags
    other than [0]/[1]) is an [Error], as are unknown tags, a wrong
    version byte and trailing bytes. *)

val version : int
(** Current protocol version byte. *)

val max_frame : int
(** Frames beyond this many payload bytes are refused by {!read_frame}
    (64 MiB — a watermarked program, not a DoS vector). *)

val encode_request : Proto.request -> string
val decode_request : string -> (Proto.request, string) result
val encode_response : Proto.response -> string
val decode_response : string -> (Proto.response, string) result

val write_frame : Unix.file_descr -> string -> unit
(** Length-prefix and write the whole payload. *)

val read_frame : Unix.file_descr -> string option
(** [None] on orderly EOF at a frame boundary.  Raises [Failure] on a
    torn frame, an oversized length, or EOF mid-frame. *)
