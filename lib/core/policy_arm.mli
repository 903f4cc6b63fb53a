(** One arm of a replica- or neighbor-selection policy comparison: the
    store and stream scenario runs that [tivlab store], [tivlab stream]
    and the bench's store and stream tables all make.

    The caller supplies what differs between them: the scenario
    config, the engine factory ([engine seed] builds a measurement
    engine over the backend with the caller's measurement-plane
    options and the given seed) and, optionally, an arbiter carve for
    the repair plane.  The scenario engine is [engine seed]; a
    coordinate-based policy embeds Vivaldi through
    {!Selectors.embed_maintenance}, so every arm replays the identical
    fault, churn and dynamics streams. *)

type store = {
  engine : Tivaware_measure.Engine.t;  (** the scenario engine *)
  scenario : Tivaware_store.Scenario.t;
  result : Tivaware_store.Scenario.result;
  maintenance_probes : int;  (** the embedding's bill; 0 without one *)
}

val store :
  ?arbiter:Tivaware_measure.Arbiter.t ->
  engine:(int -> Tivaware_measure.Engine.t) ->
  seed:int ->
  config:Tivaware_store.Scenario.config ->
  Tivaware_backend.Delay_backend.t ->
  [ `Naive | `Vivaldi | `Meridian | `Alert ] ->
  store
(** Runs one {!Tivaware_store.Scenario} under the policy of that kind:
    {!Tivaware_store.Policy.naive}, [coordinate] and [alert] over the
    maintenance embedding, or [probe] for [`Meridian].  Raises
    [Invalid_argument] from {!Tivaware_store.Scenario.create}. *)

type stream = {
  engine : Tivaware_measure.Engine.t;  (** the swarm engine *)
  select : Tivaware_stream.Select.t;
  swarm : Tivaware_stream.Swarm.t;
  result : Tivaware_stream.Swarm.result;
  maintenance_probes : int;  (** the embedding's bill; 0 without one *)
}

val stream :
  ?arbiter:Tivaware_measure.Arbiter.t ->
  engine:(int -> Tivaware_measure.Engine.t) ->
  seed:int ->
  config:Tivaware_stream.Swarm.config ->
  Tivaware_backend.Delay_backend.t ->
  [ `Naive | `Vivaldi | `Alert ] ->
  stream
(** Runs one {!Tivaware_stream.Swarm} under the selection of that
    kind: {!Tivaware_stream.Select.naive} seeded with the swarm
    config's seed, or [coordinate] and [alert] over the maintenance
    embedding.  Raises [Invalid_argument] from
    {!Tivaware_stream.Swarm.create}. *)
