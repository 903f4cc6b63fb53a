(* embed: a 20-round Vivaldi embedding of a 100k-node lazy backend whose
   DS2 model is measured from 400 nodes, then a sampled alert sweep
   (Eval.evaluate_sampled, 2000 pairs x 64 legs).  The engine is in
   oracle mode: no cache, no faults.  It puts the lazy backend, the bare
   probe path and Vivaldi under 2M probes at flat memory, and bypasses
   the cache, the overlays and the service layer. *)

module C = Common
module Rng = Tivaware_util.Rng
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Synthesizer = Tivaware_topology.Synthesizer
module Backend = Tivaware_backend.Delay_backend
module Oracle = Tivaware_measure.Oracle
module Engine = Tivaware_measure.Engine
module Probe_stats = Tivaware_measure.Probe_stats
module Obs = Tivaware_obs
module System = Tivaware_vivaldi.System
module Eval = Tivaware_tiv.Eval

let model_nodes = 400
let nodes = 100_000
let rounds = 20
let pairs = 2000
let legs = 64
let worst_fraction = 0.1

(* Timed seconds of one repetition on the reference host. *)
let nominal_s = 5.

(* Time spent inside backend queries, summed per parent span. *)
type seam = { mutable ns : int; mutable calls : int }

type world = { engine : Engine.t; system : System.t; rng : Rng.t }

(* [oracle] is Delay_backend.oracle (untraced) or the timed wrapper. *)
let setup ~seed { C.span } ~oracle =
  let m =
    span "topology.generate" (fun () ->
        (Datasets.generate ~size:model_nodes ~seed:C.world_seed Datasets.Ds2)
          .Generator.matrix)
  in
  let model = span "topology.analyze" (fun () -> Synthesizer.analyze m) in
  let backend =
    span "backend.create" (fun () -> Backend.lazy_synth ~seed ~size:nodes model)
  in
  let engine =
    span "measure.engine_create" (fun () ->
        let config = { Engine.default_config with Engine.seed } in
        Engine.create ~config (oracle backend))
  in
  Backend.attach_obs backend (Engine.obs engine);
  let rng = Rng.create seed in
  let system =
    span "vivaldi.create" (fun () -> System.create_with_engine rng engine)
  in
  { engine; system; rng }

let failures (s : Probe_stats.t) = s.unmeasured + s.failed + s.denied + s.down

let judge w points =
  let b = Buffer.create 4096 in
  let clock = Engine.now w.engine in
  Buffer.add_string b (Obs.Summary.to_string ~clock (Engine.obs w.engine));
  List.iter
    (fun p ->
      Printf.bprintf b "%h %d %h %h\n" p.Eval.threshold p.Eval.alerts
        p.Eval.accuracy p.Eval.recall)
    points;
  let in_unit x = x >= 0. && x <= 1. in
  let vivaldi = Probe_stats.label_count (Engine.stats w.engine) "vivaldi" in
  ( C.digest_string (Buffer.contents b),
    [
      ("embed: one vivaldi probe per node per round", vivaldi = rounds * nodes);
      ( "embed: one alert point per threshold, accuracy and recall in [0, 1]",
        List.length points = List.length Eval.default_thresholds
        && List.for_all
             (fun p -> in_unit p.Eval.accuracy && in_unit p.Eval.recall)
             points );
    ] )

(* The timed phase: System.run one round at a time, then the alert
   sweep, each named through [span].  Returns the rounds' GC words
   beside the repetition. *)
let run w ~setup_s { C.span } =
  let stats = Engine.stats w.engine in
  let before = Probe_stats.snapshot stats in
  let w0 = C.words () in
  let segments =
    Array.init rounds (fun _ ->
        let requests = stats.requests in
        let (), s =
          C.timed (fun () ->
              span "vivaldi.round" (fun () -> System.round w.system))
        in
        (stats.requests - requests, s))
  in
  let round_words = C.words () -. w0 in
  let sweep_start = stats.requests in
  let points, sweep_s =
    C.timed (fun () ->
        span "tiv.eval" (fun () ->
            Eval.evaluate_sampled ~engine:w.engine
              ~predicted:(System.predictor w.system) ~pairs ~legs
              ~worst_fraction ~thresholds:Eval.default_thresholds w.rng))
  in
  let sweep_ops = stats.requests - sweep_start in
  let alloc_words = C.words () -. w0 in
  let digest, checks = judge w points in
  ( round_words,
    {
      C.setup_s;
      segments = Array.to_list segments @ [ (sweep_ops, sweep_s) ];
      ops = stats.requests - before.requests;
      failed = failures stats - failures before;
      alloc_words;
      digest;
      checks;
    } )

let iterate ~seed tally =
  let w, setup_s =
    C.timed (fun () -> setup ~seed C.untimed ~oracle:Backend.oracle)
  in
  let round_words, it = run w ~setup_s C.untimed in
  C.Tally.add tally "vivaldi.words" round_words;
  it

let traced ~seed rec_ tally =
  let seam = { ns = 0; calls = 0 } in
  (* Delay_backend.oracle for a lazy backend, with the query timed. *)
  let oracle b =
    Oracle.of_fn ~ext:(Backend.Backend b) ~size:(Backend.size b) (fun i j ->
        let t0 = Span.now_ns () in
        let d = Backend.query b i j in
        seam.ns <- seam.ns + (Span.now_ns () - t0);
        seam.calls <- seam.calls + 1;
        d)
  in
  let root = Span.enter rec_ ~parent:(-1) "embed.iteration" in
  let spans =
    { C.span = (fun name f -> Span.with_span rec_ ~parent:root name f) }
  in
  (* The seam's time under each parent becomes one aggregate child. *)
  let with_seam =
    {
      C.span =
        (fun name f ->
          let p = Span.enter rec_ ~parent:root name in
          let ns0 = seam.ns in
          let r = f () in
          Span.leave rec_ p;
          let start = Span.start_of rec_ p in
          let stop = start + seam.ns - ns0 in
          ignore (Span.add rec_ ~parent:p "backend.query" ~start ~stop);
          r);
    }
  in
  let w, setup_s = C.timed (fun () -> setup ~seed spans ~oracle) in
  let ns_setup = seam.ns and calls_setup = seam.calls in
  let (_, it), wall_s = C.timed (fun () -> run w ~setup_s with_seam) in
  Span.leave rec_ root;
  C.Tally.add tally "backend.seam_s" (Span.seconds (seam.ns - ns_setup));
  C.Tally.add tally "backend.seam_calls"
    (float_of_int (seam.calls - calls_setup));
  C.Tally.add tally "timed_s" wall_s;
  let backend_count name =
    Obs.Counter.value
      (Obs.Registry.counter (Engine.obs w.engine)
         ~labels:[ ("backend", "lazy") ] name)
  in
  C.Tally.add tally "backend.queries" (backend_count "backend.queries");
  C.Tally.add tally "backend.synthesized" (backend_count "backend.synthesized");
  C.tally_probes tally ~ops:it.C.ops [ Engine.stats w.engine ];
  (it, [])

let layers ~recs ~tally ~traced_iters =
  let med name = C.median (Span.durations recs name) in
  let sum = C.Tally.sum tally in
  C.measure_layers tally
  @ [
      ("topology.generate_s", med "topology.generate");
      ("topology.analyze_s", med "topology.analyze");
      ("backend.create_s", med "backend.create");
      ( "backend.query_ns_mean",
        1e9 *. C.ratio (sum "backend.seam_s") (sum "backend.seam_calls") );
      ("backend.share", C.ratio (sum "backend.seam_s") (sum "timed_s"));
      ("backend.queries", C.Tally.mean tally "backend.queries");
      ("backend.synthesized", C.Tally.mean tally "backend.synthesized");
      ("vivaldi.create_s", med "vivaldi.create");
      ("vivaldi.round_ms_p50", 1e3 *. med "vivaldi.round");
      ( "vivaldi.self_s",
        Span.self_total recs "vivaldi.round" /. float_of_int traced_iters );
      ( "vivaldi.alloc_words_per_probe",
        C.Tally.median tally "vivaldi.words" /. float_of_int (rounds * nodes) );
      ("tiv.eval_s", med "tiv.eval");
    ]
