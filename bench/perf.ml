(* Bechamel microbenchmarks of the hot kernels.  Run with --perf; they
   are excluded from the default figure run to keep it fast. *)

open Bechamel
open Toolkit
module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Severity = Tivaware_tiv.Severity
module Shortest_path = Tivaware_delay_space.Shortest_path
module System = Tivaware_vivaldi.System
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Generator = Tivaware_topology.Generator
module Datasets = Tivaware_topology.Datasets
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Budget = Tivaware_measure.Budget
module Churn = Tivaware_measure.Churn
module Oracle = Tivaware_measure.Oracle
module Euclidean = Tivaware_topology.Euclidean
module Multicast = Tivaware_overlay.Multicast
module Delay_backend = Tivaware_backend.Delay_backend

(* Probe-engine kernels: the per-lookup cost the measurement plane adds
   over a raw Matrix.get.  Collected separately into BENCH_measure.json. *)
let measure_tests m =
  let oracle_engine = Engine.of_matrix m in
  let faulty_engine =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          Engine.fault = { Fault.default with Fault.loss = 0.1; jitter = 0.2 };
          seed = 6;
        }
      m
  in
  let cached_engine =
    Engine.of_matrix
      ~config:{ Engine.default_config with Engine.cache_ttl = Some 1e9 }
      m
  in
  (* Warm the cache so the kernel measures the pure hit path. *)
  for i = 0 to 49 do
    for j = 0 to 49 do
      if i <> j then ignore (Engine.rtt cached_engine i j)
    done
  done;
  let lru_engine =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          Engine.cache_ttl = Some 1e9;
          cache_capacity = Some 256;
        }
      m
  in
  (* Warm past capacity so every lookup exercises the LRU list: hits
     move entries to the front, misses insert and evict the tail. *)
  for i = 0 to 49 do
    for j = 0 to 49 do
      if i <> j then ignore (Engine.rtt lru_engine i j)
    done
  done;
  let adaptive_engine =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          Engine.fault =
            {
              Fault.default with
              Fault.loss = 0.2;
              retries = 3;
              policy = Fault.adaptive ~target_failure:0.01 ();
            };
          seed = 8;
        }
      m
  in
  let budget = Budget.create (Budget.per_node ~capacity:1e12 ~rate:1.) ~n:200 in
  (* One clock tick of a 100k-node engine with 20% of nodes churning:
     what every probe-driven clock movement pays for membership. *)
  let churn_engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          Engine.churn = Some { Churn.default with Churn.fraction = 0.2 };
        }
      (Oracle.of_fn ~size:100_000 (fun _ _ -> 1.))
  in
  (* A serve-sized cache: 400 nodes, every one of their 79,800 pairs
     cached under the 10 s TTL the delay service uses.  Each lookup
     moves the clock on by one 79,800th of the TTL, so a pair comes
     round about once per TTL and the lookups mix hits with stale
     re-probes; the table is far past what fits in a core's cache. *)
  let serve_n = 400 in
  let serve_m = Euclidean.uniform_box (Rng.create 13) ~n:serve_n ~dim:3 ~side_ms:200. in
  let serve_engine =
    Engine.of_matrix
      ~config:{ Engine.default_config with Engine.cache_ttl = Some 10. }
      serve_m
  in
  let serve_pairs = serve_n * (serve_n - 1) / 2 in
  let serve_dt = 10. /. float_of_int serve_pairs in
  for i = 0 to serve_n - 1 do
    for j = i + 1 to serve_n - 1 do
      ignore (Engine.rtt serve_engine i j);
      Engine.advance serve_engine serve_dt
    done
  done;
  (* The bare probe path at the embed workload's scale: a fresh random
     pair of 100k nodes per run, so whatever per-link state a probe
     writes is spread over billions of links and stays out of cache.
     On 200 nodes ([probe-oracle]) such state stays hot and hides its
     cost. *)
  let wide_n = 100_000 in
  let wide_engine =
    Engine.create
      (Oracle.of_fn ~size:wide_n (fun i j ->
           float_of_int (1 + ((i + j) land 255))))
  in
  let rng = Rng.create 7 in
  [
    Test.make ~name:"measure/probe-oracle"
      (Staged.stage (fun () ->
           ignore (Engine.rtt oracle_engine (Rng.int rng 200) (Rng.int rng 200))));
    Test.make ~name:"measure/probe-oracle-100k"
      (Staged.stage (fun () ->
           ignore
             (Engine.rtt wide_engine (Rng.int rng wide_n) (Rng.int rng wide_n))));
    (* What every protocol's probe pays: a plane label is attributed
       per issued attempt. *)
    Test.make ~name:"measure/probe-labelled"
      (Staged.stage (fun () ->
           ignore
             (Engine.rtt ~label:"meridian" oracle_engine (Rng.int rng 200)
                (Rng.int rng 200))));
    Test.make ~name:"measure/probe-faulty"
      (Staged.stage (fun () ->
           ignore (Engine.rtt faulty_engine (Rng.int rng 200) (Rng.int rng 200))));
    Test.make ~name:"measure/cache-hit"
      (Staged.stage (fun () ->
           ignore (Engine.rtt cached_engine (Rng.int rng 50) (Rng.int rng 50))));
    Test.make ~name:"measure/cache-serve-400"
      (Staged.stage (fun () ->
           Engine.advance serve_engine serve_dt;
           ignore
             (Engine.rtt serve_engine (Rng.int rng serve_n) (Rng.int rng serve_n))));
    Test.make ~name:"measure/lru-cache-hit"
      (Staged.stage (fun () ->
           ignore (Engine.rtt lru_engine (Rng.int rng 50) (Rng.int rng 50))));
    Test.make ~name:"measure/adaptive-retry"
      (Staged.stage (fun () ->
           ignore
             (Engine.rtt adaptive_engine (Rng.int rng 200) (Rng.int rng 200))));
    Test.make ~name:"measure/budget-check"
      (Staged.stage (fun () ->
           ignore (Budget.try_take budget ~now:0. (Rng.int rng 200))));
    Test.make ~name:"measure/churn-advance"
      (Staged.stage (fun () -> Engine.advance churn_engine 0.05));
    Test.make ~name:"measure/matrix-get-baseline"
      (Staged.stage (fun () ->
           ignore (Matrix.get m (Rng.int rng 200) (Rng.int rng 200))));
  ]

(* Tree kernels: the per-chunk child lookup a streaming swarm pays on
   every forward, on a swarm-sized tree (200 members of 800 nodes,
   fan-out 4).  Collected into BENCH_measure.json with the measure
   kernels. *)
let overlay_tests () =
  let n = 800 in
  let m = Euclidean.uniform_box (Rng.create 11) ~n ~dim:3 ~side_ms:200. in
  let join_order = Rng.sample_indices (Rng.create 12) ~n ~k:200 in
  let tree =
    Multicast.build_backend
      ~config:{ Multicast.default_config with Multicast.max_degree = 4 }
      (Delay_backend.dense m) ~join_order
  in
  let members = Array.of_list (Multicast.members tree) in
  let next = ref 0 in
  [
    Test.make ~name:"overlay/children"
      (Staged.stage (fun () ->
           let node = members.(!next) in
           next := (!next + 1) mod Array.length members;
           ignore (Multicast.children tree node)));
  ]

let tests () =
  let data = Datasets.generate ~size:200 ~seed:99 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let system = System.create (Rng.create 1) m in
  System.run system ~rounds:50;
  let rng = Rng.create 2 in
  let meridian_nodes = Rng.sample_indices rng ~n:(Matrix.size m) ~k:100 in
  let overlay =
    Overlay.build (Rng.create 3) m Ring.default_config ~meridian_nodes
  in
  let query_rng = Rng.create 4 in
  [
    Test.make ~name:"rng/int" (Staged.stage (fun () -> Rng.int query_rng 1000));
    Test.make ~name:"vivaldi/round"
      (Staged.stage (fun () -> System.round system));
    Test.make ~name:"severity/edge"
      (Staged.stage (fun () -> ignore (Severity.edge m 0 1)));
    Test.make ~name:"dijkstra/single-source"
      (Staged.stage (fun () -> ignore (Shortest_path.single_source m 0)));
    Test.make ~name:"meridian/query"
      (Staged.stage (fun () ->
           let start = meridian_nodes.(Rng.int query_rng 100) in
           let target = Rng.int query_rng (Matrix.size m) in
           if Overlay.is_meridian overlay start
              && (not (Overlay.is_meridian overlay target))
              && not (Matrix.is_missing m start target)
           then
             ignore
               (Query.closest_engine overlay (Engine.of_matrix m) ~start
                  ~target)));
    Test.make ~name:"generator/200-nodes"
      (Staged.stage (fun () ->
           ignore (Datasets.generate ~size:200 ~seed:5 Datasets.Ds2)));
  ]
  @ measure_tests m
  @ overlay_tests ()

(* The kernels [perf_check] gates, written to BENCH_measure.json. *)
let gated name =
  String.starts_with ~prefix:"measure/" name
  || String.starts_with ~prefix:"overlay/" name

let write_measure_json measure =
  let module Json = Tivaware_obs.Json in
  if measure <> [] then begin
    let kernels =
      List.map
        (fun (name, ns) ->
          (* Two decimals is far below run-to-run noise and keeps the
             committed baseline diff-friendly. *)
          Json.Obj
            [
              ("name", Json.String name);
              ("ns_per_run", Json.number (Float.round (ns *. 100.) /. 100.));
            ])
        measure
    in
    let doc = Json.Obj [ ("kernels", Json.List kernels) ] in
    let oc = open_out "BENCH_measure.json" in
    output_string oc (Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    Printf.printf "wrote BENCH_measure.json (%d kernels)\n" (List.length measure)
  end

(* Every gated kernel is measured [gated_rounds] times, each time right
   after a run of the baseline kernel, in rounds over all of them.
   [perf_check] normalizes every kernel by the baseline, so the
   baseline reports the median of all its runs, and each kernel the
   median of its per-round ratios to the baseline run next to it,
   times that unit: a host that slows down for a while slows a kernel
   and its neighbouring baseline together, and the medians shed a
   round that a burst of load spoiled.  The garbage collector is
   compacted once per estimate, not before every sample: compacting
   the benchmark's heap before each sample spent the time quota on the
   collector and left only short samples, whose timer overhead then
   swamped the kernels. *)
let gated_rounds = 5
let baseline_kernel = "measure/matrix-get-baseline"

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  (* The OLS-estimated monotonic time per run of one test. *)
  let estimate test =
    let results = Benchmark.all cfg instances test in
    let ols =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
        (Instance.monotonic_clock) results
    in
    Hashtbl.fold
      (fun _ result acc ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Some est
        | _ -> acc)
      ols None
  in
  let report name = function
    | Some est -> Printf.printf "%-28s %12.1f ns/run\n%!" name est
    | None -> Printf.printf "%-28s (no estimate)\n%!" name
  in
  let tests = tests () in
  let baseline = List.find (fun t -> Test.name t = baseline_kernel) tests in
  let gated_tests, others = List.partition (fun t -> gated (Test.name t)) tests in
  List.iter (fun t -> report (Test.name t) (estimate t)) others;
  let gated_tests =
    List.filter (fun t -> Test.name t <> baseline_kernel) gated_tests
  in
  (* Rounds outermost, so each kernel's samples spread over the whole
     run rather than bunching into one stretch of host load. *)
  let baseline_runs = ref [] and ratios = Hashtbl.create 16 in
  for _ = 1 to gated_rounds do
    List.iter
      (fun t ->
        match (estimate baseline, estimate t) with
        | Some b, Some k ->
          baseline_runs := b :: !baseline_runs;
          Hashtbl.add ratios (Test.name t) (k /. b)
        | _ -> ())
      gated_tests
  done;
  match !baseline_runs with
  | [] -> print_endline "no baseline estimate; BENCH_measure.json not written"
  | runs ->
    let unit_ns = median runs in
    let kernels =
      List.filter_map
        (fun t ->
          let name = Test.name t in
          match Hashtbl.find_all ratios name with
          | [] ->
            report name None;
            None
          | rs ->
            let ns = median rs *. unit_ns in
            report name (Some ns);
            Some (name, ns))
        gated_tests
    in
    report baseline_kernel (Some unit_ns);
    write_measure_json (kernels @ [ (baseline_kernel, unit_ns) ])
