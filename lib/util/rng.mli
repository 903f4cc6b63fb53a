(** Deterministic pseudo-random number generation.

    All randomized components of the library draw from this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): fast,
    well-distributed, and splittable, which lets independent subsystems
    derive independent streams from one master seed. *)

type t
(** Mutable generator state: the 64-bit SplitMix64 word, held unboxed so
    that advancing it allocates nothing. *)

val create : int -> t
(** [create seed] returns a fresh generator determined by [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val of_pair : seed:int -> int -> int -> t
(** [of_pair ~seed i j] is the generator of the unordered pair [{i, j}]
    under [seed]: its state is [seed], [min i j] and [max i j] folded
    through {!mix64}.  It is a pure function of those three values, so
    per-pair draws cannot depend on the order pairs are visited in, and
    [of_pair ~seed i j] and [of_pair ~seed j i] give the same stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val mix64 : int64 -> int64
(** The SplitMix64 finalizer (xor-shift-multiply), the bijection each
    output passes through.  Exposed as the one stateless 64-bit hash the
    library uses wherever a value must be a pure function of its inputs
    (per-pair delay seeds, query seeds, ring placements, Chord ids). *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). Requires [bound > 0]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform on [lo, hi). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gauss : t -> mean:float -> stddev:float -> float
(** Normal deviate (Box–Muller). *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (mean [1. /. rate]). *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto deviate: [scale] is the minimum value, [shape] the tail index.
    Smaller shape gives a heavier tail. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal deviate: [exp (gauss mu sigma)]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_indices : t -> n:int -> k:int -> int array
(** [sample_indices t ~n ~k] is [k] distinct indices drawn uniformly from
    [0, n).  Requires [k <= n].  The result is in random order. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)
