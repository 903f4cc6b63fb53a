(* Object-store read path: not a paper figure — the replica-selection
   experiment behind lib/store.  One arm per policy over the identical
   world (same ring, same Zipf reads, same churn schedule, same diurnal
   route dynamics): naive measure-once caching, Vivaldi coordinates,
   Meridian-style probing, and the TIV-alerted hybrid that probes but
   quarantines pairs whose coordinate prediction collapses below the
   alert threshold.  Companion to test/test_store_properties.ml and the
   committed BENCH_store.md. *)

module Table = Tivaware_util.Table
module Stats = Tivaware_util.Stats
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Backend = Tivaware_backend.Delay_backend
module Policy_arm = Tivaware_core.Policy_arm
module Store_policy = Tivaware_store.Policy
module Store_scenario = Tivaware_store.Scenario

(* One policy arm, mirroring `tivlab store --loss 0.03 --churn
   --dynamics diurnal`: every arm's engines come from the same seeded
   config, so every policy sees the identical fault/churn/dynamics
   streams (see Policy_arm). *)
let arm ctx kind =
  let backend = Backend.dense (Context.matrix ctx) in
  let config engine_seed =
    {
      Engine.default_config with
      Engine.fault = { Fault.default with Fault.loss = 0.03 };
      churn = Some { Churn.default with Churn.fraction = 0.2; seed = engine_seed };
      dynamics =
        Some
          {
            Dynamics.default with
            Dynamics.diurnal = Some Dynamics.default_diurnal;
            seed = engine_seed;
          };
      seed = engine_seed;
    }
  in
  let seed = ctx.Context.seed in
  Policy_arm.store
    ~engine:(fun s -> Backend.engine ~config:(config s) backend)
    ~seed
    ~config:{ Store_scenario.default_config with Store_scenario.seed = seed + 17 }
    backend kind

let store ctx =
  Report.section "store"
    "Object-store reads over the consistent-hashing ring: replica \
     selection policy vs read latency under churn and route dynamics";
  Report.expectation
    "the TIV-alerted policy beats naive caching on p99 read latency \
     (measure-once estimates go stale under churn and the diurnal \
     loss swing) while spending fewer foreground probes than \
     exhaustive Meridian-style probing";
  let table =
    Table.create
      ~header:
        [
          "policy"; "reads"; "mean ms"; "p50 ms"; "p99 ms"; "probes/read";
          "maint probes"; "dead"; "handoffs"; "rehomed";
        ]
  in
  let row kind =
    let arm = arm ctx kind in
    let result = arm.Policy_arm.result in
    let lat = result.Store_scenario.latencies in
    let completed = max 1 result.Store_scenario.completed in
    let p99 = Stats.percentile lat 99. in
    Table.add_row table
      [
        Store_policy.name (Store_scenario.policy arm.Policy_arm.scenario);
        string_of_int result.Store_scenario.completed;
        Printf.sprintf "%.1f" (Stats.mean lat);
        Printf.sprintf "%.1f" (Stats.percentile lat 50.);
        Printf.sprintf "%.1f" p99;
        Printf.sprintf "%.2f"
          (float_of_int result.Store_scenario.policy_probes
          /. float_of_int completed);
        string_of_int arm.Policy_arm.maintenance_probes;
        string_of_int result.Store_scenario.dead_attempts;
        string_of_int result.Store_scenario.handoffs;
        string_of_int result.Store_scenario.repair.Store_scenario.total_rehomed;
      ];
    (p99, result.Store_scenario.policy_probes)
  in
  let naive_p99, _ = row `Naive in
  let _ = row `Vivaldi in
  let _, meridian_probes = row `Meridian in
  let alert_p99, alert_probes = row `Alert in
  Table.print table;
  Report.measured
    "p99 read latency %.1f ms alert vs %.1f ms naive; alert foreground \
     probes %d vs %d meridian"
    alert_p99 naive_p99 alert_probes meridian_probes;
  Report.note
    "all arms replay the identical churn schedule and diurnal cycle; \
     naive trusts its first measurement forever, so its tail tracks \
     replicas that died or were mismeasured after the cache filled"

let register () =
  Registry.register "store"
    "Store replica selection: policy vs read latency under dynamics"
    store
