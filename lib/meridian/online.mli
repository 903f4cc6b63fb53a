(** Online Meridian queries over the discrete-event simulator.

    {!Query.closest_engine} evaluates a query instantaneously; this module
    replays the same recursive protocol as timed message exchanges on a
    {!Tivaware_eventsim.Sim.t}, yielding wall-clock (virtual time) query
    latency in addition to probe counts:

    - the client's request reaches the start node after half its RTT to
      it (we only have RTTs, so one-way = RTT / 2);
    - at each hop the current node probes the target (one RTT), then
      fans out to its eligible ring members in parallel; each member
      costs (RTT to member) + (member's probe RTT to target) before its
      report is back;
    - the hop completes when the slowest eligible member reports
      (Meridian waits for all acceptable members);
    - forwarding to the next node costs half the RTT between them, and
      the final answer returns to the client after half the client-to-
      chosen RTT.

    The recursion, acceptance window, termination rule and answer are
    identical to {!Query.closest_engine} — property tests assert this —
    so the module adds {e timing}, not different semantics. *)

type outcome = {
  query : Query.outcome;  (** the logical result (same as offline) *)
  latency : float;  (** virtual ms from client send to answer received *)
}

val closest :
  ?termination:Query.termination ->
  Tivaware_eventsim.Sim.t ->
  Overlay.t ->
  Tivaware_delay_space.Matrix.t ->
  client:int ->
  start:int ->
  target:int ->
  outcome
(** Runs the simulator until the query completes, timing every probe
    by its matrix RTT.  The simulator's clock keeps advancing across
    calls, so one [Sim.t] can serve many sequential queries.  Raises
    [Invalid_argument] unless [start] is a Meridian node with measured
    delays to both the client and the target.

    This is not {!closest_engine} over [Engine.of_matrix]: on a matrix
    with missing pairs the two diverge.  Here a member whose delay to
    the target is unmeasured reports [nan] at no cost (the matrix has
    nothing to wait for), while the engine replay charges the probe's
    full failure cost — the {!Tivaware_measure.Fault} timeout — on the
    hop.  The matrix replay is the paper's oracle timing model and
    what the [abl-online] experiment reports, so it stays. *)

val attach : Tivaware_eventsim.Sim.t -> Tivaware_measure.Engine.t -> unit
(** Slaves the engine's logical clock (seconds) to the simulator's
    virtual clock (ms) via {!Tivaware_eventsim.Sim.on_advance}, so
    probe budgets refill and cache entries age in simulator time.  Call
    once per (sim, engine) pair, before querying. *)

val closest_engine :
  ?termination:Query.termination ->
  Tivaware_eventsim.Sim.t ->
  Overlay.t ->
  Tivaware_measure.Engine.t ->
  client:int ->
  start:int ->
  target:int ->
  outcome
(** Measurement-cost-aware replay: message transit (client hand-off,
    fan-out request/report halves, forwarding, the answer's return)
    still rides the engine's ground-truth delay backend, but every probe is
    issued through the engine at the moment the protocol reaches it and
    its cost — the delivered RTT, or the timeouts and backoff delays a
    lost probe burns — advances the simulator clock on the issuing
    path.  Failed probes degrade the query exactly as in
    {!Query.closest_engine} (a node that cannot measure the target
    becomes ineligible; a failed start probe ends the query with
    [chosen_delay = nan], same convention as the offline path), and
    [latency] now includes what measurement actually cost.  Under
    {!Tivaware_measure.Engine.default_config} the outcome and latency
    are identical to {!closest} on the same matrix when every pair is
    measured (see {!closest} for how missing pairs diverge).  The
    engine should be created with [charge_time = false] here — the
    simulator owns time; pair with {!attach} to keep the engine clock
    in sync.  Ground truth is recovered with
    {!Tivaware_backend.Delay_backend.of_engine}, so any engine works —
    matrix-backed or lazy. *)
