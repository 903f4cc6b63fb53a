(** Delay-space synthesis from a measured matrix, after Zhang et al.'s
    DS² framework (IMC 2006) — the tool that produced the paper's
    4000-node data set from smaller measurements.

    {!analyze} builds a statistical model of an input delay space:
    its major-cluster structure and, for every cluster-pair bucket
    (including the noise pseudo-cluster), the empirical distribution of
    measured delays plus the fraction of missing measurements.
    {!synthesize} then emits a delay matrix of {e any} size whose nodes
    follow the same cluster proportions and whose delays are drawn from
    the matching bucket distributions (with small smoothing jitter).

    Because inflated (TIV-causing) delays are part of the empirical
    bucket distributions, the synthesized space reproduces the source's
    delay and TIV-severity profiles at the distribution level.  What it
    does {e not} preserve is per-edge correlation structure — e.g. that
    one specific node pair's inflation is consistent with a particular
    routing detour — which is the same simplification DS² itself makes
    and documents. *)

type model

val analyze :
  ?clusters:int -> ?radius_ms:float -> Tivaware_delay_space.Matrix.t -> model
(** Builds the model ({!Tivaware_delay_space.Clustering} with [clusters]
    major clusters, default 3, radius default 50 ms).  Raises
    [Invalid_argument] if some cluster-pair bucket has no measured edge
    (degenerate inputs). *)

val source_size : model -> int

val cluster_fractions : model -> float array
(** Node share of each major cluster; the last entry is the noise
    share.  Sums to 1. *)

val missing_fraction : model -> float

val assign_buckets : Tivaware_util.Rng.t -> model -> size:int -> int array
(** [assign_buckets rng model ~size] deals [size] nodes into the model's
    cluster buckets by largest-remainder rounding of the source
    proportions, then shuffles the assignment with [rng].  The returned
    array maps node id to bucket index (the last bucket is the noise
    pseudo-cluster).  This is the first — and only size-dependent — RNG
    consumption of a synthesis run, so a lazy backend that fixes the
    assignment up front stays aligned with {!synthesize_with_clusters}. *)

val bucket_labels : model -> int array -> int array
(** Maps a bucket assignment to user-facing cluster labels: the noise
    pseudo-cluster becomes [-1], every other bucket keeps its index. *)

val draw_delay :
  jitter:float -> Tivaware_util.Rng.t -> model -> a:int -> b:int -> float
(** [draw_delay ~jitter rng model ~a ~b] draws one delay between a node
    in bucket [a] and one in bucket [b]: first a Bernoulli missing-entry
    trial at the model's missing fraction, then an empirical bucket
    sample scaled by a uniform factor in [1 ± jitter].
    Returns [nan] for missing entries and empty buckets (the latter
    consumes no further RNG).  {!synthesize_with_clusters} is exactly
    one such draw per upper-triangular pair in row-major order. *)

val synthesize :
  ?jitter:float ->
  Tivaware_util.Rng.t ->
  model ->
  size:int ->
  Tivaware_delay_space.Matrix.t
(** [synthesize rng model ~size] draws a [size]-node delay space from
    the model.  Each delay is an empirical bucket sample scaled by a
    uniform factor in [1 ± jitter] (default 0.05); entries go missing
    at the source's missing rate. *)

val synthesize_with_clusters :
  ?jitter:float ->
  Tivaware_util.Rng.t ->
  model ->
  size:int ->
  Tivaware_delay_space.Matrix.t * int array
(** As {!synthesize}, also returning the synthetic cluster label of
    each node ([-1] = noise). *)
