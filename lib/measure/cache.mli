(** TTL'd RTT cache (the IDMS-style "delay service" mode), with
    optional capacity-bounded LRU eviction.

    A delay {e service} amortizes probes by answering repeat lookups
    from a cache at the price of staleness; on-demand probing pays for
    every lookup but is never stale.  Entries are keyed on the
    unordered pair and carry the logical time they were measured; a
    lookup at [now] past the TTL evicts the entry and reports it
    {!Stale} so the caller re-probes.

    With a [capacity], the cache additionally models a bounded service:
    storing a new pair beyond capacity evicts the least-recently-used
    entry (hits and refreshes both count as use).

    The table is flat: an open-addressing index of [key; entry id]
    pairs over a dense pool of flat arrays (keys in an [int array],
    value and measured-at time interleaved in one [float array]).
    Lookups probe linearly from each pair's packed key hashed by a
    SplitMix-style finalizer ({!hash_pair}), and a hit reads unboxed
    floats, so {!find_code} allocates nothing.  Deletions (stale drops
    and evictions) shift the rest of the probe run back, so no
    tombstones accumulate.  The recency order is a pair of [int array]
    links over entry ids (O(1) relink), allocated and maintained only
    when a capacity is set: without a bound, recency is never
    observed. *)

type t

val create : ?capacity:int -> ttl:float -> unit -> t
(** [ttl] in logical seconds; must be positive.  [capacity] (entries)
    must be >= 1 when given; [None] = unbounded.  Raises
    [Invalid_argument] with a descriptive message otherwise. *)

val ttl : t -> float

val capacity : t -> int option

type lookup =
  | Hit of float  (** fresh entry (refreshes its recency) *)
  | Stale  (** entry existed but expired; evicted *)
  | Miss  (** no entry *)

val find : t -> now:float -> int -> int -> lookup

val code_hit : int
val code_stale : int
val code_miss : int

val find_code : t -> now:float -> into:float array -> int -> int -> int
(** Non-allocating {!find} for the probe hot path: returns
    {!code_hit}, {!code_stale} or {!code_miss}; on a hit the cached
    value is stored (unboxed) in [into.(0)] ([into] must have length
    >= 1, and is untouched otherwise).  Side effects match {!find}
    exactly — a hit refreshes recency, a stale entry is evicted. *)

val store : t -> now:float -> int -> int -> float -> int
(** Records a measurement at [now]; returns the number of entries
    evicted to respect the capacity bound (0 or 1).  [nan] values are
    not cached (a failed probe is not an answer a service would
    retain).  Re-storing a cached pair refreshes it in place and never
    evicts. *)

val hash_key : int -> int
(** SplitMix64's finalizer with its multipliers cut to OCaml's 63-bit
    int: every bit of [k] reaches the low bits a power-of-two table
    indexes by.  Never negative.  {!Fault}'s per-link loss table hashes
    its keys with it too. *)

val hash_pair : int -> int -> int
(** The table's hash of the unordered pair [(i, j)] (indices below
    2{^31}): [hash_pair i j = hash_pair j i], never negative, and every
    bit of the packed key reaches the low bits the table indexes by. *)

val evictions : t -> int
(** Cumulative capacity (LRU) evictions; TTL expiries are not counted
    here (the engine reports those as [stale]). *)

val length : t -> int
(** Live entries, expired ones included until touched. *)

val clear : t -> unit
