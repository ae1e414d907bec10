(* Order statistics of one run's samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The [q]-quantile, 0 <= q <= 1, interpolated linearly between the
   order statistics at rank q·(n-1) (the "type 7" rule of R and
   NumPy): [quantile 0.5] is the median, [quantile 0.0] the minimum. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Stats.quantile: q outside [0, 1]";
  let a = sorted xs in
  let h = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor h) in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* Index of the tail sample: the 99th percentile when at least ten
   samples lie beyond it (n >= 1000); otherwise the highest percentile
   that still has ten samples beyond it; the maximum when that
   percentile would not lie above the median (n <= 20). *)
let tail_index n =
  if n <= 0 then invalid_arg "Stats.tail: no samples";
  let p99 = int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1 in
  if n <= 20 then n - 1 else min p99 (n - 11)

let tail xs = (sorted xs).(tail_index (Array.length xs))

(* the percentile [tail] reports, for the run's notes on stderr *)
let tail_percentile n = 100.0 *. float_of_int (tail_index n + 1) /. float_of_int n

let sum xs = Array.fold_left ( +. ) 0.0 xs
