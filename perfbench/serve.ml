(* serve: the tivd query service.  Driver.run at 2 worker domains on the
   400-node dense DS2 world, 32 Meridian members, a closest:dht:refresh
   mix of 200:200:1.  Queries run back to back (closed loop in wall
   time) while a simulated Poisson arrival clock ages a TTL-bounded
   measurement cache.  The 200:200:1 mix keeps each kind at a measurable
   share of wall time; the default 6:6:1 spends most of it on refresh.

   The traced run re-drives the stream itself: it builds each
   partition's world and issues its queries with the same public calls
   Shard.create / Shard.execute make, and its merged summary must equal
   Driver.run's byte for byte. *)

module C = Common
module Rng = Tivaware_util.Rng
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Probe_stats = Tivaware_measure.Probe_stats
module Obs = Tivaware_obs
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space
module Multicast = Tivaware_overlay.Multicast
module Workload = Tivaware_service.Workload
module Shard = Tivaware_service.Shard
module Driver = Tivaware_service.Driver

let nodes = 400
let domains = 2
let queries = 20_000
let mix = { Workload.closest = 200; dht = 200; multicast = 1 }
let rate = 200.
let cache_ttl = 10.

(* Timed seconds of one repetition on the reference host. *)
let nominal_s = 1.

let generate () =
  (Datasets.generate ~size:nodes ~seed:C.world_seed Datasets.Ds2)
    .Generator.matrix

let spec ~seed ~queries matrix =
  {
    Shard.seed;
    engine_config =
      { Engine.default_config with Engine.cache_ttl = Some cache_ttl; seed };
    make_backend = (fun () -> Backend.dense matrix);
    meridian_count = 32;
    candidate_budget = None;
    beta = 0.5;
    rate = Some rate;
    mix;
    queries;
  }

let kind_total obs name =
  Array.fold_left
    (fun acc kind ->
      let labels = [ ("kind", Workload.kind_label kind) ] in
      let c = Obs.Registry.counter obs ~labels name in
      acc + int_of_float (Obs.Counter.value c))
    0 Workload.kinds

(* Digest, failures and output checks of one served stream. *)
let judge obs ~clock =
  let digest = C.digest_string (Obs.Summary.to_string ~clock obs) in
  let served = kind_total obs "service.queries" in
  ( digest,
    kind_total obs "service.failures",
    [ ("serve: per-kind queries sum to the stream length", served = queries) ]
  )

(* Driver.run builds every shard's world before serving, so the timed
   phase is the full run minus a zero-query run over the same world. *)
let iterate ~seed tally =
  let m, gen_s = C.timed generate in
  let w0 = C.words () in
  let _, build_s =
    C.timed (fun () -> Driver.run ~domains (spec ~seed ~queries:0 m))
  in
  let build_words = C.words () -. w0 in
  let cpu0 = C.cpu_s () and w1 = C.words () in
  let r, run_s =
    C.timed (fun () -> Driver.run ~domains (spec ~seed ~queries m))
  in
  let run_words = C.words () -. w1 and cpu = C.cpu_s () -. cpu0 in
  C.Tally.add tally "service.world_build_s" build_s;
  C.Tally.add tally "service.cpu_util"
    (cpu /. (run_s *. float_of_int domains));
  let digest, failed, checks = judge r.Driver.obs ~clock:r.Driver.clock in
  {
    C.setup_s = gen_s +. build_s;
    segments = [ (queries, run_s -. build_s) ];
    ops = queries;
    failed;
    alloc_words = run_words -. build_words;
    digest;
    checks;
  }

(* ---- Traced re-drive ------------------------------------------------- *)

type shard = {
  backend : Backend.t;
  engine : Engine.t;
  overlay : Overlay.t;
  chord : Chord.t;
  tree : Multicast.t;
  meridian_nodes : int array;
  size : int;
  queries_c : Obs.Counter.t array;
  failures_c : Obs.Counter.t array;
  latency_h : Obs.Histogram.t array;
  hops_h : Obs.Histogram.t;
  switches_c : Obs.Counter.t;
}

(* Shard.create, call for call. *)
let build_shard rec_ ~parent (spec : Shard.spec) =
  let span name f = Span.with_span rec_ ~parent name f in
  let backend = span "backend.create" spec.make_backend in
  let n = Backend.size backend in
  let rng = Rng.create spec.seed in
  let meridian_nodes = Rng.sample_indices rng ~n ~k:spec.meridian_count in
  let cfg = { Ring.default_config with Ring.beta = spec.beta } in
  let overlay =
    span "meridian.overlay_build" (fun () ->
        Overlay.build_backend ?candidate_budget:spec.candidate_budget rng
          backend cfg ~meridian_nodes)
  in
  let chord = span "dht.build" (fun () -> Chord.build_backend backend) in
  let join_order = Rng.permutation rng n in
  let tree =
    span "overlay.tree_build" (fun () ->
        Multicast.build_backend backend ~join_order)
  in
  let engine =
    span "measure.engine_create" (fun () ->
        Backend.engine ~config:spec.engine_config backend)
  in
  Backend.attach_obs backend (Engine.obs engine);
  let obs = Engine.obs engine in
  let per_kind f =
    Array.map
      (fun k -> f ~labels:[ ("kind", Workload.kind_label k) ])
      Workload.kinds
  in
  {
    backend;
    engine;
    overlay;
    chord;
    tree;
    meridian_nodes;
    size = n;
    queries_c =
      per_kind (fun ~labels ->
          Obs.Registry.counter obs ~labels "service.queries");
    failures_c =
      per_kind (fun ~labels ->
          Obs.Registry.counter obs ~labels "service.failures");
    latency_h =
      per_kind (fun ~labels ->
          Obs.Registry.histogram obs ~labels ~edges:Shard.latency_edges
            "service.latency_ms");
    hops_h = Obs.Registry.histogram obs ~edges:Shard.hops_edges "service.hops";
    switches_c = Obs.Registry.counter obs "service.switches";
  }

(* Shard.execute, call for call, with a span around each library call. *)
let execute t rec_ tally ~parent ~qid kind qrng =
  let i = Workload.kind_index kind in
  Obs.Counter.incr t.queries_c.(i);
  let stats = Engine.stats t.engine in
  let span name f = Span.with_span rec_ ~req:qid ~parent name f in
  let count key n = C.Tally.add tally key (float_of_int n) in
  match kind with
  | Workload.Closest ->
    let start = Rng.choice qrng t.meridian_nodes in
    let target = Rng.int qrng t.size in
    let before = stats.Probe_stats.probe_ms in
    let out =
      span "meridian.closest" (fun () ->
          Query.closest_engine t.overlay t.engine ~start ~target)
    in
    count "closest.probes" out.Query.probes;
    count "closest.hops" out.Query.hops;
    if Float.is_nan out.Query.chosen_delay then
      Obs.Counter.incr t.failures_c.(i);
    Obs.Histogram.observe t.latency_h.(i)
      (stats.Probe_stats.probe_ms -. before)
  | Workload.Dht_lookup ->
    let source = Rng.int qrng t.size in
    let key = Rng.int qrng Id_space.modulus in
    let r =
      span "dht.lookup" (fun () ->
          Chord.lookup_backend t.chord t.backend ~source ~key)
    in
    count "dht.hops" r.Chord.hops;
    Obs.Histogram.observe t.hops_h (float_of_int r.Chord.hops);
    Obs.Histogram.observe t.latency_h.(i) r.Chord.latency
  | Workload.Multicast_refresh ->
    let before = stats.Probe_stats.probe_ms in
    let requests = stats.Probe_stats.requests in
    let switches =
      span "overlay.refresh" (fun () ->
          Multicast.refresh_engine t.tree qrng t.engine)
    in
    count "refresh.requests" (stats.Probe_stats.requests - requests);
    count "refresh.switches" switches;
    Obs.Counter.add t.switches_c (float_of_int switches);
    Obs.Histogram.observe t.latency_h.(i)
      (stats.Probe_stats.probe_ms -. before)

(* Shard.run_partition over a re-built shard, on its own domain. *)
let partition (spec : Shard.spec) ~domain =
  let rec_ = Span.create ~domain:(domain + 1) in
  let tally = C.Tally.create () in
  let root = Span.enter rec_ ~parent:(-1) "service.partition" in
  let t =
    Span.with_span rec_ ~parent:root "service.world_build" (fun () ->
        build_shard rec_ ~parent:root spec)
  in
  let serve = Span.enter rec_ ~parent:root "service.serve" in
  let arrival = ref 0.0 in
  for qid = 0 to spec.queries - 1 do
    let gap, kind, qrng =
      Workload.draws ~seed:spec.seed ~qid ~rate:spec.rate spec.mix
    in
    arrival := !arrival +. gap;
    if qid mod domains = domain then begin
      (match spec.rate with
      | Some _ -> Engine.advance_to t.engine !arrival
      | None -> ());
      execute t rec_ tally ~parent:serve ~qid kind qrng
    end
  done;
  Span.leave rec_ serve;
  Span.leave rec_ root;
  (rec_, tally, t.engine)

let traced ~seed rec_ tally =
  let m, gen_s =
    C.timed (fun () ->
        Span.with_span rec_ ~parent:(-1) "topology.generate" generate)
  in
  let spec = spec ~seed ~queries m in
  let w0 = C.words () in
  let parts, wall =
    C.timed (fun () ->
        Array.init domains (fun domain ->
            Domain.spawn (fun () -> partition spec ~domain))
        |> Array.map Domain.join |> Array.to_list)
  in
  let words = C.words () -. w0 in
  let recs = List.map (fun (r, _, _) -> r) parts in
  let engines = List.map (fun (_, _, e) -> e) parts in
  List.iter (fun (_, t, _) -> C.Tally.append ~into:tally t) parts;
  let build =
    List.fold_left
      (fun acc r -> Float.max acc (Span.total [ r ] "service.world_build"))
      0. recs
  in
  let serving = List.map (fun r -> Span.total [ r ] "service.serve") recs in
  let mean = List.fold_left ( +. ) 0. serving /. float_of_int domains in
  C.Tally.add tally "service.imbalance"
    (C.ratio (List.fold_left Float.max 0. serving) mean);
  let obs =
    Span.with_span rec_ ~parent:(-1) "service.merge" (fun () ->
        Obs.Merge.registries (List.map Engine.obs engines))
  in
  let clock =
    List.fold_left (fun acc e -> Float.max acc (Engine.now e)) 0. engines
  in
  let digest, failed, checks = judge obs ~clock in
  C.tally_probes tally ~ops:queries (List.map Engine.stats engines);
  let backend_queries =
    Obs.Registry.counter obs ~labels:[ ("backend", "dense") ] "backend.queries"
  in
  C.Tally.add tally "backend.queries" (Obs.Counter.value backend_queries);
  ( {
      C.setup_s = gen_s +. build;
      segments = [ (queries, wall -. build) ];
      ops = queries;
      failed;
      alloc_words = words;
      digest;
      checks;
    },
    recs )

let layers ~recs ~tally ~traced_iters =
  let dur name = Span.durations recs name in
  let med name = C.median (dur name) in
  let total_serving = Span.total recs "service.serve" in
  let share name = C.ratio (Span.total recs name) total_serving in
  let us name p = 1e6 *. C.percentile (dur name) p in
  let ms name p = 1e3 *. C.percentile (dur name) p in
  let tail name = C.tail_pct (Array.length (dur name)) in
  let mean = C.Tally.mean tally and median = C.Tally.median tally in
  C.measure_layers tally
  @ [
      ("topology.generate_s", med "topology.generate");
      ("backend.create_s", med "backend.create");
      ("backend.queries", mean "backend.queries");
      ("meridian.overlay_build_s", med "meridian.overlay_build");
      ("meridian.closest_us_p50", us "meridian.closest" 50.);
      ( "meridian.closest_us_p99",
        us "meridian.closest" (tail "meridian.closest") );
      ("meridian.probes_per_closest", mean "closest.probes");
      ("meridian.hops_per_closest", mean "closest.hops");
      ("meridian.share", share "meridian.closest");
      ("dht.build_s", med "dht.build");
      ("dht.lookup_us_p50", us "dht.lookup" 50.);
      ("dht.lookup_us_p99", us "dht.lookup" (tail "dht.lookup"));
      ("dht.hops_mean", mean "dht.hops");
      ("dht.share", share "dht.lookup");
      ("overlay.tree_build_s", med "overlay.tree_build");
      ("overlay.refresh_ms_p50", ms "overlay.refresh" 50.);
      ("overlay.refresh_ms_p90", ms "overlay.refresh" 90.);
      ("overlay.requests_per_refresh", mean "refresh.requests");
      ( "overlay.switches",
        C.ratio (C.Tally.sum tally "refresh.switches") (float_of_int traced_iters)
      );
      ("overlay.share", share "overlay.refresh");
      ("service.world_build_s", median "service.world_build_s");
      ("service.cpu_util", median "service.cpu_util");
      ("service.imbalance", median "service.imbalance");
    ]
