module Rng = Tivaware_util.Rng

type kind = Closest | Dht_lookup | Multicast_refresh

let kinds = [| Closest; Dht_lookup; Multicast_refresh |]

let kind_label = function
  | Closest -> "closest"
  | Dht_lookup -> "dht"
  | Multicast_refresh -> "multicast"

let kind_index = function
  | Closest -> 0
  | Dht_lookup -> 1
  | Multicast_refresh -> 2

type mix = { closest : int; dht : int; multicast : int }

let default_mix = { closest = 6; dht = 6; multicast = 1 }

let validate_mix m =
  if m.closest < 0 || m.dht < 0 || m.multicast < 0 then
    invalid_arg "Workload.validate_mix: weights must be non-negative";
  if m.closest + m.dht + m.multicast = 0 then
    invalid_arg "Workload.validate_mix: at least one weight must be positive"

(* SplitMix64's finalizer over (seed, qid).  Each query gets a private
   generator derived from the pair alone, so a query's parameters are
   identical whichever shard executes it and however many shards there
   are — the heart of the partition-independence contract. *)
let mix_seed seed qid =
  Int64.to_int
    (Rng.mix64
       (Int64.add (Int64.of_int seed)
          (Int64.mul (Int64.of_int (qid + 1)) 0x9E3779B97F4A7C15L)))

let query_rng ~seed ~qid = Rng.create (mix_seed seed qid)

let draw_kind rng mix =
  let total = mix.closest + mix.dht + mix.multicast in
  let r = Rng.int rng total in
  if r < mix.closest then Closest
  else if r < mix.closest + mix.dht then Dht_lookup
  else Multicast_refresh

let draws ~seed ~qid ~rate mix =
  let rng = query_rng ~seed ~qid in
  let gap =
    match rate with Some r -> Rng.exponential rng ~rate:r | None -> 0.
  in
  let kind = draw_kind rng mix in
  (gap, kind, rng)
