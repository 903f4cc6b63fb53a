(* Types and measurement helpers shared by the workloads. *)

module Stats = Tivaware_util.Stats
module Probe_stats = Tivaware_measure.Probe_stats

(* One repetition of a workload: a fresh set-up, then the timed phase.
   Repeating a repetition on the same seed repeats its work exactly, so
   [digest] must repeat too. *)
type iteration = {
  setup_s : float;  (* wall time before the first operation *)
  segments : (int * float) list;
      (* the timed phase as (operations, seconds) segments of like work *)
  ops : int;  (* operations attempted in the timed phase *)
  failed : int;  (* of which failed *)
  alloc_words : float;  (* GC words allocated in the timed phase *)
  digest : string;  (* deterministic result digest *)
  checks : (string * bool) list;  (* named output checks *)
}

(* The delay space every workload runs on is a fixed dataset: the DS2
   world `tivd` serves by default.  The workload seed picks everything
   else (samples, overlays, request streams, faults, churn), so
   differences between seeds are differences in the requests, not in
   the Internet they run over. *)
let world_seed = 2007

(* How set-up code names its phases: a span in a traced run, nothing
   otherwise. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated by every domain so far: [Gc.quick_stat] folds in the
   counts of domains that have already joined. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line -> (
        try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let median a = if Array.length a = 0 then 0. else Stats.median a
let percentile a p = if Array.length a = 0 then 0. else Stats.percentile a p
let ratio a b = if b = 0. then 0. else a /. b
let digest_string s = Digest.to_hex (Digest.string s)

(* The tail percentile a sample supports: p99 when at least ten samples
   lie beyond it, p90 otherwise. *)
let tail_pct n = if float_of_int n *. 0.01 >= 10. then 99. else 90.

(* Operations per second over a run's timed segments, at the pace of the
   lower quartile of their per-operation times.  Other tenants of a
   shared host slow a process by up to ~40% for seconds to minutes at a
   time; a slowdown only ever lengthens a segment, so the faster
   segments of a run measure the program and the slower ones the host.
   The lower quartile (not the minimum) keeps one lucky segment from
   setting the figure. *)
let ops_per_s segments =
  let per_op =
    List.map (fun (n, s) -> s /. float_of_int (max 1 n)) segments
    |> Array.of_list
  in
  ratio 1. (percentile per_op 25.)

(* ---- Per-layer tallies ----------------------------------------------- *)

(* Named samples a run collects beside its spans. *)
module Tally = struct
  type t = (string, float list ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) key v =
    match Hashtbl.find_opt t key with
    | Some r -> r := v :: !r
    | None -> Hashtbl.replace t key (ref [ v ])

  let samples (t : t) key =
    match Hashtbl.find_opt t key with
    | Some r -> Array.of_list (List.rev !r)
    | None -> [||]

  (* [append ~into t] adds every sample of [t] (a domain's tally) to [into]. *)
  let append ~into (t : t) =
    Hashtbl.iter (fun key r -> List.iter (add into key) (List.rev !r)) t

  let sum t key = Array.fold_left ( +. ) 0. (samples t key)

  let mean t key =
    let a = samples t key in
    if a = [||] then 0. else Stats.mean a

  let median t key = median (samples t key)
end

(* The foreground engines' probe accounting for one traced repetition of
   [ops] operations, and the measure.* metrics made from it. *)
let tally_probes tally ~ops (stats : Probe_stats.t list) =
  let total f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
  Tally.add tally "ops" (float_of_int ops);
  List.iter
    (fun (key, f) -> Tally.add tally key (total f))
    Probe_stats.
      [
        ("requests", fun s -> s.requests);
        ("issued", fun s -> s.issued);
        ("hits", fun s -> s.hits);
        ("evicted", fun s -> s.evicted);
        ("lost", fun s -> s.lost);
        ("retried", fun s -> s.retried);
        ("denied", fun s -> s.denied);
        ("down", fun s -> s.down);
        ("unmeasured", fun s -> s.unmeasured);
      ]

let measure_layers tally =
  let mean = Tally.mean tally in
  let ops = mean "ops" and requests = mean "requests" in
  [
    ("measure.requests_per_op", ratio requests ops);
    ("measure.issued_per_op", ratio (mean "issued") ops);
    ("measure.cache_hit_ratio", ratio (mean "hits") requests);
    ("measure.cache.evicted", mean "evicted");
    ("measure.lost", mean "lost");
    ("measure.retried", mean "retried");
    ("measure.denied", mean "denied");
    ("measure.down", mean "down");
    ("measure.unmeasured", mean "unmeasured");
  ]

(* ---- The 800-node world of store-read and stream-live --------------- *)

module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine

type maintained = {
  engine : Engine.t;  (* the foreground engine *)
  maintenance : Engine.t;  (* the seed+1 engine the embedding probed *)
  backend : Backend.t;
  predictor : int -> int -> float;
}

(* The dense DS2 world, its foreground engine, and a Vivaldi embedding
   on a separate seed+1 maintenance engine over the same backend, wired
   as `tivlab store` and `tivlab stream` wire the alert policy. *)
let maintained_world ~nodes ~seed ~config { span } =
  let m =
    span "topology.generate" (fun () ->
        (Tivaware_topology.Datasets.generate ~size:nodes ~seed:world_seed
           Tivaware_topology.Datasets.Ds2)
          .Tivaware_topology.Generator.matrix)
  in
  let backend = span "backend.create" (fun () -> Backend.dense m) in
  let make_engine seed =
    span "measure.engine_create" (fun () ->
        let engine = Backend.engine ~config:(config ~seed) backend in
        Backend.attach_obs backend (Engine.obs engine);
        engine)
  in
  let engine = make_engine seed in
  let maintenance = make_engine (seed + 1) in
  let system =
    span "core.maint_embed" (fun () ->
        Tivaware_core.Selectors.embed_vivaldi_engine
          (Tivaware_util.Rng.create (seed + 1))
          maintenance)
  in
  {
    engine;
    maintenance;
    backend;
    predictor = Tivaware_vivaldi.System.predictor system;
  }

let maintenance_probes w =
  Probe_stats.label_count (Engine.stats w.maintenance) "vivaldi"

(* The engine summary and a workload's own result lines, digested. *)
let result_digest engine lines =
  let b = Buffer.create 4096 in
  let clock = Engine.now engine in
  Buffer.add_string b (Tivaware_obs.Summary.to_string ~clock (Engine.obs engine));
  List.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') lines;
  digest_string (Buffer.contents b)
