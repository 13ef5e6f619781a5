(** The byte codec shared by every binary format of the system: programs
    (SVM1), traces (TRC1), native images (NBIN), cached job outcomes
    (PBO1), registry journal records and service payloads.

    Integers are unsigned LEB128 varints (seven bits per byte, least
    significant group first, high bit set on every byte but the last);
    signed integers are zigzag-mapped first.  Strings and lists carry a
    varint length or count, then their bytes or elements.  Booleans and
    option tags are one byte, [0] or [1].

    The reader is the one place that decides what malformed means, for
    every format alike:
    - a varint longer than 9 bytes, or one whose value does not fit a
      non-negative [int], is malformed (a zigzag varint may use all 63
      bits of its 9 bytes);
    - a length or count that is negative or larger than the bytes that
      remain is malformed, so a corrupt count fails before it allocates;
    - a boolean or option tag other than [0]/[1] is malformed.

    Every rejection raises {!Malformed}; callers map it to their own
    failure style at their public boundary. *)

exception Malformed of string

(** {1 Writing} *)

val add_varint : Buffer.t -> int -> unit
(** Raises [Invalid_argument] on a negative value. *)

val add_zigzag : Buffer.t -> int -> unit
(** Any [int], including [min_int] and [max_int]; at most 9 bytes. *)

val add_str : Buffer.t -> string -> unit
val add_bool : Buffer.t -> bool -> unit
val add_opt : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** {1 Reading} *)

type reader

val reader : string -> reader
(** A reader positioned at the first byte. *)

val byte : reader -> int
val varint : reader -> int
val zigzag : reader -> int
val str : reader -> string
val bool : reader -> bool
val opt : reader -> (reader -> 'a) -> 'a option

val list : reader -> (reader -> 'a) -> 'a list
(** Elements are read in byte-stream order. *)

val magic : reader -> string -> unit
(** Consume the given header bytes, or raise [Malformed "bad magic
    (expected M)"]. *)

val pos : reader -> int
(** Offset of the next unread byte. *)

val finish : reader -> unit
(** Raises [Malformed "trailing bytes"] unless every byte was read. *)
