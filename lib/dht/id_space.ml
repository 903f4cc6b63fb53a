module Rng = Tivaware_util.Rng

let bits = 61
let modulus = 1 lsl bits
let mask = modulus - 1

(* SplitMix64 finalizer over the node index; masked to 61 bits. *)
let of_node index =
  let z = Rng.mix64 (Int64.add (Int64.of_int index) 0x9E3779B97F4A7C15L) in
  Int64.to_int (Int64.logand z (Int64.of_int mask))

let distance_cw a b = (b - a) land mask

let between_cw a x b =
  let da = distance_cw a x and db = distance_cw a b in
  da > 0 && da < db

let add a b = (a + b) land mask

let power_offset k =
  assert (k >= 0 && k < bits);
  1 lsl k
