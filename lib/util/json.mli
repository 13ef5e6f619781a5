(** The JSON string writer shared by every hand-rolled JSON renderer (no
    JSON library in the toolchain). *)

val escape : string -> string
(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped ([\n], [\r], [\t] by name, the rest as [\u00XX]). *)

val str : string -> string
(** A quoted, escaped JSON string literal. *)

val list : string list -> string
(** A JSON array of already-rendered items. *)
