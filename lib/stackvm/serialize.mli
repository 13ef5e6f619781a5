(** Binary serialization of programs.

    Figure 8(b) of the paper measures watermark cost in {e bytes of
    bytecode}; this compact binary format is our size metric, and
    round-trips exactly.  Layout: ["SVM1"], the global and function
    counts, then per function its name, argument, local and instruction
    counts and its instructions (an opcode byte plus operands: zigzag
    varint constants, varint slots and targets, string callee names),
    finally the entry function's name.  Integers and strings use
    {!Util.Binio}, whose reader rejects overlong or overflowing varints
    and lengths past the input. *)

val encode : Program.t -> string
(** Serialize to bytes. *)

val decode : string -> Program.t
(** Inverse of {!encode}. Raises [Failure] on malformed input (and only
    [Failure]: declared lengths and counts are validated against the
    bytes that remain before any allocation, and a varint that does not
    fit a non-negative [int] is malformed). *)

val decode_opt : string -> Program.t option
(** Total decoding: [None] on malformed input — corrupt artifacts are a
    typed outcome, never a crash. *)

val size_in_bytes : Program.t -> int
(** [String.length (encode p)]. *)
