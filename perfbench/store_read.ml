(* store-read: the alert-policy read path of Store.Scenario on an 800-node
   dense DS2 world, with Zipf reads, 3% probe loss, 20% churn, diurnal
   dynamics and the repair plane.  It ranks candidates on every read and
   runs the engine's fault, churn, dynamics and repair paths. *)

module C = Common
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Policy = Tivaware_store.Policy
module Scenario = Tivaware_store.Scenario

let nodes = 800
let reads = 120_000
let duration = 7200.

(* Timed seconds of one repetition on the reference host. *)
let nominal_s = 2.

(* Reads per timing segment: the timed phase is cut into blocks of reads
   (with the repair passes between them) at the read callback. *)
let block = 4000

let engine_config ~seed =
  {
    Engine.default_config with
    Engine.fault = { Fault.default with Fault.loss = 0.03 };
    churn = Some { Churn.default with Churn.fraction = 0.2; seed };
    dynamics =
      Some
        {
          Dynamics.default with
          Dynamics.diurnal = Some Dynamics.default_diurnal;
          seed;
        };
    seed;
  }

let setup ~seed ({ C.span } as spans) =
  let w = C.maintained_world ~nodes ~seed ~config:engine_config spans in
  let config =
    { Scenario.default_config with Scenario.reads; duration; seed = seed + 17 }
  in
  let scenario =
    span "store.create" (fun () ->
        Scenario.create ~config ~policy:(Policy.alert w.C.predictor)
          ~backend:w.C.backend ~engine:w.C.engine ())
  in
  (w, scenario)

let judge w (r : Scenario.result) =
  let rep = r.repair in
  let lines =
    Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d %d" r.issued
      r.completed r.failed r.skipped r.handoffs r.dead_attempts
      r.policy_probes rep.passes rep.total_checked rep.total_rehomed
      rep.total_restored rep.total_denied (C.maintenance_probes w)
    :: List.map (Printf.sprintf "%h") (Array.to_list r.latencies)
  in
  ( C.result_digest w.C.engine lines,
    [
      ( "store-read: reads attempted plus skipped equal the reads configured",
        r.issued + r.skipped = reads );
      ( "store-read: reads completed plus failed equal reads attempted",
        r.completed + r.failed = r.issued );
      ( "store-read: one latency per completed read",
        Array.length r.latencies = r.completed );
    ] )

(* Scenario.run, with [on_read] called on every read before the block
   clock is read. *)
let run (w, scenario) ~setup_s { C.span } ~on_read ?repair_trace () =
  let segments = ref [] and n = ref 0 and mark = ref (C.now ()) in
  let trace o =
    on_read o;
    incr n;
    if !n mod block = 0 then begin
      let now = C.now () in
      segments := (block, now -. !mark) :: !segments;
      mark := now
    end
  in
  let w0 = C.words () in
  mark := C.now ();
  let r, wall_s =
    C.timed (fun () -> Scenario.run ~trace ?repair_trace scenario)
  in
  let alloc_words = C.words () -. w0 in
  let segments = if !segments = [] then [ (r.issued, wall_s) ] else !segments in
  let digest, checks = span "perfbench.check" (fun () -> judge w r) in
  ( r,
    {
      C.setup_s;
      segments;
      ops = r.issued;
      failed = r.failed;
      alloc_words;
      digest;
      checks;
    } )

let iterate ~seed _tally =
  let world, setup_s = C.timed (fun () -> setup ~seed C.untimed) in
  snd (run world ~setup_s C.untimed ~on_read:ignore ())

let traced ~seed rec_ tally =
  let root = Span.enter rec_ ~parent:(-1) "store.iteration" in
  let spans =
    { C.span = (fun name f -> Span.with_span rec_ ~parent:root name f) }
  in
  let world, setup_s = C.timed (fun () -> setup ~seed spans) in
  let parent = Span.enter rec_ ~parent:root "store.run" in
  (* Each read or repair pass is the gap since the previous callback. *)
  let last = ref 0 and nread = ref 0 in
  let gap name req =
    let now = Span.now_ns () in
    ignore (Span.add rec_ ~req ~parent name ~start:!last ~stop:now);
    last := now
  in
  let on_read (o : Scenario.read_outcome) =
    gap "store.read" !nread;
    incr nread;
    C.Tally.add tally "probes_per_read" (float_of_int o.probes)
  in
  let repair_trace (p : Scenario.pass_outcome) =
    gap "store.repair_pass" p.pass
  in
  last := Span.now_ns ();
  let r, it = run world ~setup_s spans ~on_read ~repair_trace () in
  Span.leave rec_ parent;
  Span.leave rec_ root;
  let w = fst world in
  C.tally_probes tally ~ops:r.issued [ Engine.stats w.C.engine ];
  List.iter
    (fun (k, v) -> C.Tally.add tally k (float_of_int v))
    [
      ("dead_attempts", r.dead_attempts);
      ("handoffs", r.handoffs);
      ("maint_probes", C.maintenance_probes w);
    ];
  (it, [])

let layers ~recs ~tally ~traced_iters:_ =
  let med name = C.median (Span.durations recs name) in
  let reads_us = Array.map (( *. ) 1e6) (Span.durations recs "store.read") in
  let mean = C.Tally.mean tally in
  C.measure_layers tally
  @ [
      ("topology.generate_s", med "topology.generate");
      ("backend.create_s", med "backend.create");
      ("core.maint_embed_s", med "core.maint_embed");
      ("core.maint_probes", mean "maint_probes");
      ("store.create_s", med "store.create");
      ("store.read_us_p50", C.percentile reads_us 50.);
      ( "store.read_us_p99",
        C.percentile reads_us (C.tail_pct (Array.length reads_us)) );
      ("store.repair_pass_ms_p50", 1e3 *. med "store.repair_pass");
      ("store.probes_per_read", mean "probes_per_read");
      ("store.dead_attempts", mean "dead_attempts");
      ("store.handoffs", mean "handoffs");
    ]
