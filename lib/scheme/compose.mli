(** Multi-watermark composition (the paper's §5.2.2 as a first-class mode).

    [compose \[w1; …; wk\]] is a scheme named ["w1+…+wk"] that embeds every
    component mark into one program — the double-watermark attack scenario,
    promoted to something the test suite and the experiment runner can
    drive directly.  Components must share the VM track.

    Embedding threads the carrier left to right; component [i] embeds under
    a seed split derived from the spec seed (component 0 uses the spec seed
    unchanged, so a 1-element composition is identical to the component).
    Auxes are concatenated length-prefixed.  Recognition runs every
    component and reports agreement: the composed value is [Some v] exactly
    when every component recovers and all recovered values are equal;
    confidence is the component minimum. *)

val seed_for : int64 -> int -> int64
(** [seed_for seed i] — the embedding seed of component [i]. *)

val compose :
  (module Watermarker.WATERMARKER) list -> (module Watermarker.WATERMARKER)
(** Raises [Invalid_argument] on an empty list, mixed tracks, or
    native-track members (their embedder turns assembly into a binary, so
    a second member has nothing to embed into). *)
