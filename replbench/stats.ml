(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Samples that must lie above the reported tail value. *)
let beyond = 10

(* The tail rule: the highest percentile that still leaves [beyond]
   samples above it, i.e. the sample with exactly [beyond] larger ones.
   Returns the value and the percentile it sits at. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then (nan, nan)
  else (a.(n - beyond - 1), 100. *. float_of_int (n - beyond) /. float_of_int n)

(* The value at percentile [p] (0..100), nearest rank. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
