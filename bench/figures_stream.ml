(* Live-streaming swarm: not a paper figure — the locality-aware P2P
   streaming experiment behind lib/stream, the repo's first scenario
   judged by an application metric (missed playback deadlines).  One
   arm per neighbor-selection policy over the identical world (same
   membership, same join order, same churn schedule, same route
   flaps): locality-unaware random attachment, Vivaldi coordinate
   ranking, and the TIV-alert-aware ranking that verifies candidates
   and quarantines likely-shrunk edges.  Companion to
   test/test_stream.ml and the committed BENCH_stream.md. *)

module Table = Tivaware_util.Table
module Stats = Tivaware_util.Stats
module Engine = Tivaware_measure.Engine
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Probe_stats = Tivaware_measure.Probe_stats
module Backend = Tivaware_backend.Delay_backend
module Multicast = Tivaware_overlay.Multicast
module Policy_arm = Tivaware_core.Policy_arm
module Select = Tivaware_stream.Select
module Swarm = Tivaware_stream.Swarm

(* One policy arm, mirroring `tivlab stream --churn --dynamics
   routeflap`: every arm's engines come from the same seeded config,
   so every policy sees the identical churn schedule and route flaps
   (see Policy_arm). *)
let arm ctx kind =
  let backend = Backend.dense (Context.matrix ctx) in
  let config engine_seed =
    {
      Engine.default_config with
      Engine.churn =
        Some { Churn.default with Churn.fraction = 0.2; seed = engine_seed };
      dynamics =
        Some
          {
            Dynamics.default with
            Dynamics.route_flap = Some Dynamics.default_route_flap;
            seed = engine_seed;
          };
      seed = engine_seed;
    }
  in
  let seed = ctx.Context.seed in
  Policy_arm.stream
    ~engine:(fun s -> Backend.engine ~config:(config s) backend)
    ~seed
    ~config:{ Swarm.default_config with Swarm.seed = seed + 23 }
    backend kind

let stream ctx =
  Report.section "stream"
    "P2P live streaming over the delay space: neighbor selection \
     policy vs missed playback deadlines under churn and route flaps";
  Report.expectation
    "the TIV-alert-aware policy beats locality-unaware attachment on \
     chunk-miss rate (random parents sit several long hops from the \
     source, so chunks overrun the playback deadline) while keeping \
     the tree's delivery stretch near the coordinate-ranked tree's";
  let table =
    Table.create
      ~header:
        [
          "policy"; "on time"; "missed"; "miss rate"; "stretch p50";
          "stretch p90"; "dup"; "overhead"; "pull hits"; "regrafts";
          "fg probes"; "maint probes";
        ]
  in
  let row kind =
    let arm = arm ctx kind in
    let r = arm.Policy_arm.result in
    let st = r.Swarm.stretches in
    let stats = Engine.stats arm.Policy_arm.engine in
    Table.add_row table
      [
        Select.name arm.Policy_arm.select;
        string_of_int r.Swarm.on_time;
        string_of_int r.Swarm.missed;
        Printf.sprintf "%.4f" r.Swarm.miss_rate;
        Printf.sprintf "%.2f" (if st = [||] then 0. else Stats.median st);
        Printf.sprintf "%.2f" (if st = [||] then 0. else Stats.percentile st 90.);
        string_of_int r.Swarm.duplicates;
        Printf.sprintf "%.3f" r.Swarm.overhead_ratio;
        string_of_int r.Swarm.pull_hits;
        string_of_int r.Swarm.repair.Swarm.reattached;
        string_of_int
          (Probe_stats.label_count stats "stream"
          + Probe_stats.label_count stats "stream_repair");
        string_of_int arm.Policy_arm.maintenance_probes;
      ];
    r
  in
  let naive = row `Naive in
  let vivaldi = row `Vivaldi in
  let alert = row `Alert in
  Table.print table;
  Report.measured
    "chunk-miss rate %.4f alert vs %.4f naive (vivaldi %.4f); final \
     alert tree mean edge %.1f ms vs %.1f ms naive"
    alert.Swarm.miss_rate naive.Swarm.miss_rate vivaldi.Swarm.miss_rate
    alert.Swarm.tree_metrics.Multicast.mean_edge_ms
    naive.Swarm.tree_metrics.Multicast.mean_edge_ms;
  Report.note
    "all arms replay the identical churn schedule and route flaps; \
     the naive tree's long random edges turn every flap and re-graft \
     into a burst of deadline overruns, while alert's verified short \
     edges leave slack inside the deadline for pull recovery"

let register () =
  Registry.register "stream"
    "Streaming swarm: neighbor selection vs chunk-miss rate under churn"
    stream
