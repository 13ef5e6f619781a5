(** Small statistics helpers used by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 for the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 for lists shorter than 2. *)

val median : float list -> float
(** Median; 0 for the empty list. *)

val spec_average : float list -> float
(** The SPEC-style reporting rule used in Section 5.2 of the paper: run the
    measurements, discard the highest and the lowest, and average the rest.
    Lists shorter than 3 fall back to the plain mean. *)

val percent : before:float -> after:float -> float
(** [percent ~before ~after] is the relative change in percent,
    [(after - before) / before * 100]. *)

val percentile : float array -> float -> float
(** [percentile sorted p] for [p] in [\[0, 1\]] is the nearest-rank
    percentile of an ascending array: the element at index
    [ceil (p * n) - 1], clamped to the array; 0 for the empty array. *)
