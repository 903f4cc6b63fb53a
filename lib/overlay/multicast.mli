(** Tree-based overlay multicast — the paper's opening example of a
    system that lives or dies by neighbor selection.

    A group grows by sequential joins: each joining node asks a neighbor
    selection mechanism for the nearest existing member and attaches to
    it, subject to a per-node degree cap (as real systems impose on
    fan-out).  The resulting tree is judged by:

    - {e edge cost}: the delay of each parent link;
    - {e stretch}: each member's root-to-member delay along the tree,
      divided by its direct unicast delay to the root (RMD / unicast);
    - {e fan-out} distribution.

    The module also implements a {e parent-refresh} pass in the spirit
    of the paper's dynamic-neighbor Vivaldi: periodically each node
    re-evaluates a sample of members under the current predictor and
    switches to a better parent if one exists (cycle-safe). *)

type config = {
  max_degree : int;  (** children cap per node (default 6) *)
  refresh_sample : int;  (** candidate members sampled per refresh (default 16) *)
}

val default_config : config

type t

val root : t -> int
val parent : t -> int -> int option
(** [None] for the root and for nodes that failed to join.  A joined
    non-root member's parent is always a member. *)

val members : t -> int list
(** Joined nodes, root included. *)

val children_count : t -> int -> int

val children : t -> int -> int list
(** Current children of a member, in ascending node order — the set a
    chunk-forwarding overlay pushes to.  Empty for leaves, for the
    un-joined, and for nodes whose children all left.  Read from a
    per-node child index that every parent change keeps sorted: costs
    O(children of the node), not O(n). *)

val build_backend :
  ?config:config ->
  ?predict:(int -> int -> float) ->
  Tivaware_backend.Delay_backend.t ->
  join_order:int array ->
  t
(** [build_backend b ~join_order] grows the tree over any delay
    backend: [join_order.(0)] is the root; every other node attaches to
    the predicted-nearest member with spare degree.  A pair can carry
    an edge when the backend's query is not [nan] (identical to
    [Matrix.known] for a matrix-wrapping backend); the predictor
    defaults to the backend's own delays.  Nodes with no measurable
    candidate are left out (reported by {!members}).  Two backends that
    agree on every queried pair grow identical trees. *)

val refresh_backend :
  ?predict:(int -> int -> float) ->
  t ->
  Tivaware_util.Rng.t ->
  Tivaware_backend.Delay_backend.t ->
  int
(** One refresh pass over all non-root members in random order: sample
    candidates and switch parents when a member offers a strictly
    smaller {e predicted root delay} (its tree delay to the root plus
    the predicted edge to it) and has spare degree.  Descendants are
    excluded to keep the tree acyclic.  Optimizing end-to-end delay
    rather than the parent edge alone prevents refresh from collapsing
    the tree into long low-latency chains.  Same edge-existence and
    default-predictor conventions as {!build_backend}.  Returns the
    number of parent switches. *)

(** {2 Churn-aware tree repair} *)

type repair = {
  detached : int;  (** down members torn out of the tree *)
  reattached : int;  (** orphaned children re-parented to a live member *)
  rejoined : int;  (** revived members re-admitted to the group *)
}

val repair :
  t ->
  Tivaware_util.Rng.t ->
  Tivaware_backend.Delay_backend.t ->
  predict:(int -> int -> float) ->
  up:(int -> bool) ->
  repair
(** One repair pass against a liveness oracle [up], with edge existence
    read from the backend as in {!build_backend}: down members are
    detached (their children orphaned), every orphan re-attaches to the
    best live member with spare degree among a sampled candidate set
    (the root is always a candidate, so the tree cannot fragment while
    the root is up), and revived members that still want the group
    rejoin the same way.  Orphans with no live attachment point leave
    the tree and rejoin on a later pass; a member left under such an
    orphan is re-attached in the same pass, so when [repair] returns
    every joined non-root member hangs off a joined parent.  Degrees
    are recomputed from
    the repaired parent relation.  The root never detaches; while it is
    down, repair keeps the surviving members attached among themselves
    and re-hangs them once it returns. *)

val repair_engine :
  ?label:string ->
  ?predict:(int -> int -> float) ->
  t ->
  Tivaware_util.Rng.t ->
  Tivaware_measure.Engine.t ->
  repair
(** {!repair} with liveness taken from the engine's churn model (no
    churn = everyone up) and predictions probing through the engine,
    charged and accounted under [label] (default ["multicast-repair"]).
    [predict] overrides the per-probe predictor — the hook policy-driven
    overlays (e.g. {!Tivaware_stream}) use to re-graft orphans by
    coordinate rank or TIV-alert-verified rank instead of a raw probe. *)

val build_engine :
  ?config:config ->
  ?label:string ->
  ?predict:(int -> int -> float) ->
  Tivaware_measure.Engine.t ->
  join_order:int array ->
  t
(** {!build_backend} with the predictor probing through the measurement
    plane ([label] defaults to ["multicast"]); joins consult the
    engine's ground truth for edge existence — matrix-backed and lazy
    backend engines both work.  [predict] overrides the attachment
    predictor (policy-ranked joins); any probes it issues are its own
    business.  Oracle-mode default config reproduces {!build_backend}
    over the engine's ground truth bit-for-bit. *)

val refresh_engine :
  ?label:string ->
  ?predict:(int -> int -> float) ->
  t ->
  Tivaware_util.Rng.t ->
  Tivaware_measure.Engine.t ->
  int
(** {!refresh_backend} with engine-mediated predictions; same label,
    ground-truth and [predict]-override conventions as
    {!build_engine}. *)

type metrics = {
  members : int;
  mean_edge_ms : float;
  median_stretch : float;
  p90_stretch : float;
  max_depth : int;
  max_fanout : int;
}

val evaluate_backend : t -> Tivaware_backend.Delay_backend.t -> metrics
(** Tree quality under the backend's {e measured} delays.  A missing
    parent edge ([nan]) contributes zero to the tree path; stretch is
    computed for members with a measured direct delay to the root. *)

val evaluate_engine : t -> Tivaware_measure.Engine.t -> metrics
(** {!evaluate_backend} against the engine's ground-truth oracle, with
    the nan-sentinel audit: every silent fallback — a missing parent
    edge or a member with no measurable direct root delay —
    increments the engine registry's [multicast.evaluate_failures]
    counter (and a trace event summarizes the drop count), mirroring
    [meridian.query_failures], so no unmeasurable edge vanishes into
    the percentiles unrecorded. *)
