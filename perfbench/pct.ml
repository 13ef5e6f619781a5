(* The one percentile helper of the benchmark: nearest rank, reported
   with its sample count.  A tail percentile is only meaningful when
   enough samples lie beyond it, so [summarize] refuses to report a p90
   with fewer than ten samples above it. *)

exception Too_few_samples of string

(* Nearest rank: the smallest sample with at least [p]% of the samples at
   or below it.  [sorted] must be sorted ascending and non-empty. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  sorted.(rank n p - 1)

let sorted_of samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let median samples = nearest_rank (sorted_of samples) 50.0

type summary = { n : int; p50 : float; p90 : float }

let min_beyond_p90 = 10

(* Raises [Too_few_samples] (a harness error: the run was too short) when
   fewer than [min_beyond_p90] samples lie beyond the p90. *)
let summarize ~name samples =
  let a = sorted_of samples in
  let n = Array.length a in
  let beyond = n - rank n 90.0 in
  if n = 0 || beyond < min_beyond_p90 then
    raise
      (Too_few_samples
         (Printf.sprintf "%s: %d samples leave %d beyond p90, need at least %d" name n beyond
            min_beyond_p90));
  { n; p50 = nearest_rank a 50.0; p90 = nearest_rank a 90.0 }

let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
