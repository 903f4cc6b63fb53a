(** Event-driven Vivaldi over the discrete-event simulator.

    {!System.run} advances the embedding in synchronous rounds; this
    module instead runs Vivaldi the way a deployment does: every node
    independently probes one random neighbor every [probe_period]
    seconds (with per-probe jitter so nodes desynchronize), and the
    coordinate update is applied when the probe {e response} arrives —
    one RTT after it was sent — so updates interleave in continuous
    virtual time and act on coordinates that may have moved since the
    probe left.

    The paper's experiments use the synchronous driver; this module
    supports stability studies (cf. "network coordinates in the wild")
    and exercises the simulator against a second protocol. *)

type config = {
  probe_period : float;  (** mean seconds between a node's probes (default 1) *)
  jitter : float;  (** uniform fraction of the period (default 0.1) *)
}

val default_config : config

type stats = {
  probes_sent : int;
  probes_completed : int;  (** responses applied before the deadline *)
}

val run :
  ?config:config ->
  Tivaware_eventsim.Sim.t ->
  System.t ->
  duration:float ->
  stats
(** [run sim system ~duration] schedules every node's probe loop and
    runs the simulator for [duration] virtual seconds (RTTs from the
    system's delay matrix are in milliseconds and converted).  The
    simulator clock advances by [duration]; calling again continues
    the protocol.

    Probes go through the system's measurement-plane engine, whose
    logical clock is kept in sync with the simulator: a probe the
    engine drops ([Lost]/[Down]) counts as sent but never completes; a
    budget-denied or unmeasurable probe is not sent at all. *)

(** {2 Churn}

    Deployment studies ("network coordinates in the wild") observe that
    Vivaldi must cope with nodes failing and rejoining.  The churned
    run gives every node an exponential up-time and down-time: while
    down, it sends no probes and answers none (probes to it are lost);
    on rejoin it has lost its coordinate state and restarts from a
    fresh position ({!System.reset_node}). *)

type churn = {
  mean_uptime : float;  (** seconds; exponential (default 60) *)
  mean_downtime : float;  (** seconds; exponential (default 10) *)
}

val default_churn : churn

type churn_stats = {
  base : stats;
  failures : int;  (** down transitions *)
  rejoins : int;
  probes_lost : int;  (** probes sent to (or by) a node that went down *)
}

val run_with_churn :
  ?config:config ->
  ?churn:churn ->
  Tivaware_eventsim.Sim.t ->
  System.t ->
  duration:float ->
  churn_stats
(** As {!run}, with every node cycling through up/down periods.  All
    nodes start up.  Each transition is mirrored into the engine's
    fault injector ({!Tivaware_measure.Fault.set_down}): probes to a
    down peer come back [Down], and a revived node answers probes again
    the instant it rejoins.  Raises [Invalid_argument] when the
    system's engine has a churn plane of its own ({!Tivaware_measure.Engine.churn}):
    the two would both write the same outage state. *)

val alive_fraction_hint : churn -> float
(** Steady-state expected fraction of nodes up:
    [mean_uptime / (mean_uptime + mean_downtime)]. *)
