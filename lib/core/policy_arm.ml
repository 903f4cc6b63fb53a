module Store_policy = Tivaware_store.Policy
module Store_scenario = Tivaware_store.Scenario
module Select = Tivaware_stream.Select
module Swarm = Tivaware_stream.Swarm

(* A policy built over the maintenance embedding, with its probe bill. *)
let embedded engine ~seed make =
  let predicted, probes = Selectors.embed_maintenance engine ~seed in
  (make predicted, probes)

type store = {
  engine : Tivaware_measure.Engine.t;
  scenario : Store_scenario.t;
  result : Store_scenario.result;
  maintenance_probes : int;
}

let store ?arbiter ~engine ~seed ~config backend kind =
  let scenario_engine = engine seed in
  let policy, maintenance_probes =
    match kind with
    | `Naive -> (Store_policy.naive (), 0)
    | `Vivaldi -> embedded engine ~seed Store_policy.coordinate
    | `Meridian -> (Store_policy.probe (), 0)
    | `Alert -> embedded engine ~seed Store_policy.alert
  in
  let scenario =
    Store_scenario.create ?arbiter ~config ~policy ~backend
      ~engine:scenario_engine ()
  in
  let result = Store_scenario.run scenario in
  { engine = scenario_engine; scenario; result; maintenance_probes }

type stream = {
  engine : Tivaware_measure.Engine.t;
  select : Select.t;
  swarm : Swarm.t;
  result : Swarm.result;
  maintenance_probes : int;
}

let stream ?arbiter ~engine ~seed ~config backend kind =
  let swarm_engine = engine seed in
  let select, maintenance_probes =
    match kind with
    | `Naive -> (Select.naive ~seed:config.Swarm.seed, 0)
    | `Vivaldi -> embedded engine ~seed Select.coordinate
    | `Alert -> embedded engine ~seed Select.alert
  in
  let swarm =
    Swarm.create ?arbiter ~config ~select ~backend ~engine:swarm_engine ()
  in
  let result = Swarm.run swarm in
  { engine = swarm_engine; select; swarm; result; maintenance_probes }
