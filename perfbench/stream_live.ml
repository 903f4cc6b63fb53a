(* stream-live: an alert-policy Swarm of 200 members on the 800-node dense
   DS2 world, with 20% churn, route flaps, and the pull and repair
   planes.  It is the one workload that writes multicast trees (grafts,
   repairs) rather than only refreshing them. *)

module C = Common
module Engine = Tivaware_measure.Engine
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Select = Tivaware_stream.Select
module Swarm = Tivaware_stream.Swarm

let nodes = 800
let members = 200

(* Timed seconds of one repetition on the reference host. *)
let nominal_s = 1.25

let engine_config ~seed =
  {
    Engine.default_config with
    Engine.churn = Some { Churn.default with Churn.fraction = 0.2; seed };
    dynamics =
      Some
        {
          Dynamics.default with
          Dynamics.route_flap = Some Dynamics.default_route_flap;
          seed;
        };
    seed;
  }

let setup ~seed ({ C.span } as spans) =
  let w = C.maintained_world ~nodes ~seed ~config:engine_config spans in
  let config = { Swarm.default_config with Swarm.members; seed = seed + 23 } in
  let swarm =
    span "stream.create" (fun () ->
        Swarm.create ~config ~select:(Select.alert w.C.predictor)
          ~backend:w.C.backend ~engine:w.C.engine ())
  in
  (w, swarm)

let judge w (r : Swarm.result) =
  let rep = r.repair in
  let lines =
    Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %h"
      r.members r.joined r.chunks r.on_time r.missed r.down_at_deadline
      r.deliveries r.duplicates r.transfer_failures r.lost_down
      r.pull_exchanges r.pull_failures r.pull_requests r.pull_hits
      r.overhead_ratio
    :: Printf.sprintf "%d %d %d %d %d %d" rep.passes rep.denied rep.detached
         rep.reattached rep.rejoined (C.maintenance_probes w)
    :: List.map (Printf.sprintf "%h") (Array.to_list r.stretches)
  in
  ( C.result_digest w.C.engine lines,
    [
      ( "stream-live: every (member, chunk) deadline is on time, missed or \
         down",
        r.on_time + r.missed + r.down_at_deadline = r.chunks * (r.members - 1)
      );
      ( "stream-live: at most one finite stretch per on-time delivery",
        Array.length r.stretches <= r.on_time
        && Array.for_all Float.is_finite r.stretches );
      ("stream-live: joined members within the swarm", r.joined <= r.members);
    ] )

let run (w, swarm) ~setup_s { C.span } =
  let w0 = C.words () in
  let r, run_s =
    C.timed (fun () -> span "stream.run" (fun () -> Swarm.run swarm))
  in
  let alloc_words = C.words () -. w0 in
  let digest, checks = span "perfbench.check" (fun () -> judge w r) in
  ( r,
    {
      C.setup_s;
      segments = [ (r.on_time + r.missed, run_s) ];
      ops = r.on_time + r.missed;
      failed = r.missed;
      alloc_words;
      digest;
      checks;
    } )

let iterate ~seed _tally =
  let world, setup_s = C.timed (fun () -> setup ~seed C.untimed) in
  snd (run world ~setup_s C.untimed)

let traced ~seed rec_ tally =
  let root = Span.enter rec_ ~parent:(-1) "stream.iteration" in
  let spans =
    { C.span = (fun name f -> Span.with_span rec_ ~parent:root name f) }
  in
  let world, setup_s = C.timed (fun () -> setup ~seed spans) in
  let r, it = run world ~setup_s spans in
  Span.leave rec_ root;
  let w = fst world in
  C.tally_probes tally ~ops:it.C.ops [ Engine.stats w.C.engine ];
  List.iter
    (fun (k, v) -> C.Tally.add tally k v)
    [
      ("deliveries", float_of_int r.deliveries);
      ("regrafts", float_of_int r.repair.reattached);
      ("maint_probes", float_of_int (C.maintenance_probes w));
      ("overhead_ratio", r.overhead_ratio);
      ( "pull_hit_ratio",
        C.ratio (float_of_int r.pull_hits) (float_of_int r.pull_requests) );
    ];
  (it, [])

let layers ~recs ~tally ~traced_iters:_ =
  let med name = C.median (Span.durations recs name) in
  let mean = C.Tally.mean tally in
  C.measure_layers tally
  @ [
      ("topology.generate_s", med "topology.generate");
      ("backend.create_s", med "backend.create");
      ("core.maint_embed_s", med "core.maint_embed");
      ("core.maint_probes", mean "maint_probes");
      ("stream.create_s", med "stream.create");
      ("stream.run_s", med "stream.run");
      ("stream.deliveries", mean "deliveries");
      ("stream.overhead_ratio", mean "overhead_ratio");
      ("stream.pull_hit_ratio", mean "pull_hit_ratio");
      ("stream.regrafts", mean "regrafts");
    ]
