(** Seeded node churn: alternating up/down lifetimes.

    A churn model picks a deterministic subset of nodes (the churning
    fraction) and gives each an independent schedule of exponential
    up/down lifetimes, all derived from [(seed, node)].  Driving the
    model to a time [T] yields the same up/down state no matter how the
    clock got there — one jump or many small steps — so event-driven
    (via [Sim.on_advance] slaving the engine clock) and synchronous
    (per-round [Engine.advance]) drivers see identical outage windows.

    The model does not deliver probes itself: {!drive} mirrors the
    schedule into a {!Fault} injector's node-outage set
    ({!Fault.set_down}), which the {!Engine} consults on every request —
    so a node in its down window never answers probes, and rejoins
    exactly when its down lifetime expires.

    {2 Cost}

    Churning nodes wait in a min-heap keyed by their next toggle time,
    so an advance costs O(k log c) for k toggles among c churning
    nodes — O(1) when nothing toggles — independent of n.  {!drive}
    rewrites the outage state of the nodes it toggles and no others:
    churn is the only writer of its nodes' outage state, and a
    {!Fault.set_down} on a churning node from elsewhere persists until
    that node's next toggle. *)

type config = {
  fraction : float;  (** share of nodes subject to churn, in [0, 1] *)
  mean_up : float;  (** mean up-lifetime in logical seconds (> 0) *)
  mean_down : float;  (** mean down-lifetime in logical seconds (> 0) *)
  seed : int;  (** schedule seed, independent of the fault seed *)
}

val default : config
(** 20% of nodes churning, 60 s mean up, 10 s mean down, seed 0. *)

val validate_config : string -> config -> unit
(** Raises [Invalid_argument] with a [ctx]-prefixed message on NaN or
    out-of-range fields. *)

type t

val create : ?config:config -> n:int -> unit -> t
(** All nodes start up; each churning node's first failure arrives
    after one exponential up-lifetime.  Raises [Invalid_argument] on an
    invalid config. *)

val config : t -> config

val churning : t -> int -> bool
(** Whether the node belongs to the churning subset. *)

val advance_to : t -> float -> unit
(** Advance the schedule clock (monotonic; earlier times are
    ignored).  O(k log c) for k toggles among c churning nodes. *)

val now : t -> float

val is_up : t -> int -> bool
(** Node state at the schedule's current time (non-churning nodes are
    always up). *)

val transitions : t -> int
(** Total up/down toggles processed so far. *)

val sync : t -> Fault.t -> unit
(** Mirror the current up/down state of every churning node into the
    injector's outage set: O(n), done once when the {!Engine} is
    created. *)

val drive : t -> Fault.t -> time:float -> unit
(** [advance_to], mirroring each toggled node into the injector's
    outage set as it toggles — the hook the {!Engine} calls on every
    clock movement.  Leaves the injector agreeing with {!sync}, at
    O(k log c) instead of O(n); allocates nothing when no node
    toggles.  When the schedule was moved by a bare {!advance_to}
    since the last mirror, it falls back to a full {!sync}. *)
