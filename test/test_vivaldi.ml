(* Tests for the Vivaldi network coordinate system. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Vec = Tivaware_util.Vec
module Welford = Tivaware_util.Welford
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module System = Tivaware_vivaldi.System
module Trace = Tivaware_vivaldi.Trace
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors

let checkf_loose eps = Alcotest.check (Alcotest.float eps)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:200.

let test_create_shape () =
  let m = euclidean_matrix 1 30 in
  let s = System.create (Rng.create 2) m in
  Alcotest.(check int) "size" 30 (System.size s);
  Alcotest.(check int) "coordinate dim" 5 (Vec.dim (System.coord s 0));
  Alcotest.(check int) "neighbor count clamped to n-1"
    (min System.default_config.System.neighbors_per_node 29)
    (Array.length (System.neighbors s 0));
  Alcotest.(check bool) "no self neighbor" false
    (Array.exists (( = ) 0) (System.neighbors s 0));
  Alcotest.(check (float 0.)) "initial error estimate" 1. (System.error_estimate s 0)

let test_neighbors_fewer_than_nodes () =
  (* 5 nodes but 32 requested: neighbor sets must hold the other 4. *)
  let m = euclidean_matrix 3 5 in
  let s = System.create (Rng.create 4) m in
  Alcotest.(check int) "clamped neighbor count" 4 (Array.length (System.neighbors s 0))

let test_two_node_convergence () =
  (* Two nodes at delay 50 must converge to predicted distance 50. *)
  let m = Matrix.create 2 in
  Matrix.set m 0 1 50.;
  let config = { System.default_config with System.neighbors_per_node = 1 } in
  let s = System.create ~config (Rng.create 5) m in
  System.run s ~rounds:500;
  checkf_loose 2. "converged distance" 50. (System.predicted s 0 1)

let test_euclidean_convergence () =
  (* A genuinely Euclidean delay space embeds with low error. *)
  let m = euclidean_matrix 6 40 in
  let s = System.create (Rng.create 7) m in
  System.run s ~rounds:400;
  let rel = System.relative_errors s in
  Alcotest.(check bool) "median relative error under 12%" true
    (Stats.median rel < 0.12)

let test_error_estimate_decreases () =
  let m = euclidean_matrix 8 30 in
  let s = System.create (Rng.create 9) m in
  System.run s ~rounds:300;
  let final_err =
    Stats.mean (Array.init 30 (fun i -> System.error_estimate s i))
  in
  Alcotest.(check bool) "confidence improved from 1.0" true (final_err < 0.5)

let test_observe_missing_noop () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 10.;
  (* edge 0-2 missing *)
  let config = { System.default_config with System.neighbors_per_node = 2 } in
  let s = System.create ~config (Rng.create 10) m in
  let before = System.coord s 0 in
  System.observe s 0 2;
  Alcotest.(check (array (float 0.))) "no movement on missing measurement" before
    (System.coord s 0)

let test_observe_moves_toward_target () =
  let m = Matrix.create 2 in
  Matrix.set m 0 1 100.;
  let config =
    { System.default_config with System.neighbors_per_node = 1;
      System.timestep = System.Constant 0.5 }
  in
  let s = System.create ~config (Rng.create 11) m in
  let err_before = abs_float (System.predicted s 0 1 -. 100.) in
  System.observe s 0 1;
  let err_after = abs_float (System.predicted s 0 1 -. 100.) in
  Alcotest.(check bool) "error shrank" true (err_after < err_before)

let test_set_neighbors_validation () =
  let m = euclidean_matrix 12 10 in
  let s = System.create (Rng.create 13) m in
  Alcotest.check_raises "self loop"
    (Invalid_argument "System.set_neighbors: self-loop") (fun () ->
      System.set_neighbors s 3 [| 3 |]);
  System.set_neighbors s 3 [| 1; 2 |];
  Alcotest.(check (array int)) "updated" [| 1; 2 |] (System.neighbors s 3);
  (* An id outside [0, n) is refused where it is given, not left for the
     next round to trip over inside the engine. *)
  Alcotest.check_raises "id = n"
    (Invalid_argument
       "System.set_neighbors: neighbor 10 of node 3 is outside [0, 10)")
    (fun () -> System.set_neighbors s 3 [| 1; 10 |]);
  Alcotest.check_raises "negative id"
    (Invalid_argument
       "System.set_neighbors: neighbor -1 of node 3 is outside [0, 10)")
    (fun () -> System.set_neighbors s 3 [| -1 |]);
  Alcotest.(check (array int)) "rejected sets keep the old one" [| 1; 2 |]
    (System.neighbors s 3);
  System.run s ~rounds:3;
  Alcotest.(check int) "rounds still run" 3 (System.rounds_elapsed s)

let test_neighbor_edges_dedupe () =
  let m = euclidean_matrix 14 4 in
  let s = System.create (Rng.create 15) m in
  System.set_neighbors s 0 [| 1 |];
  System.set_neighbors s 1 [| 0 |];
  System.set_neighbors s 2 [| 0 |];
  System.set_neighbors s 3 [| 0 |];
  let edges = List.sort compare (System.neighbor_edges s) in
  Alcotest.(check (list (pair int int))) "deduplicated normalized edges"
    [ (0, 1); (0, 2); (0, 3) ] edges

let test_movement_tracking () =
  let m = euclidean_matrix 16 20 in
  let s = System.create (Rng.create 17) m in
  Alcotest.(check int) "no movement initially" 0 (Welford.count (System.movement s));
  System.run s ~rounds:3;
  Alcotest.(check bool) "movement recorded" true (Welford.count (System.movement s) > 0);
  System.reset_movement s;
  Alcotest.(check int) "reset" 0 (Welford.count (System.movement s))

let test_rounds_elapsed () =
  let m = euclidean_matrix 18 10 in
  let s = System.create (Rng.create 19) m in
  System.run s ~rounds:7;
  Alcotest.(check int) "rounds counted" 7 (System.rounds_elapsed s)

let test_prediction_ratio () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 10.;
  let config = { System.default_config with System.neighbors_per_node = 1 } in
  let s = System.create ~config (Rng.create 20) m in
  let r = System.prediction_ratio s 0 1 in
  checkf_loose 1e-9 "ratio = predicted/measured" (System.predicted s 0 1 /. 10.) r;
  Alcotest.(check bool) "missing edge ratio is nan" true
    (Float.is_nan (System.prediction_ratio s 0 2))

(* ------------------------------------------------------------------ *)
(* Height vectors                                                      *)

let test_height_config_convergence () =
  (* Heights model access links: a star topology (hub + leaves all far
     from each other but equally near the hub) embeds better with
     heights than plain 2-D coordinates. *)
  let n = 12 in
  let m =
    Matrix.init n (fun i j ->
        if i = 0 || j = 0 then 50. (* leaf <-> hub *)
        else 100. (* leaf <-> leaf via hub *))
  in
  let run height =
    let config =
      { System.default_config with System.dim = 2; height; neighbors_per_node = n - 1 }
    in
    let s = System.create ~config (Rng.create 40) m in
    System.run s ~rounds:400;
    Stats.median (System.relative_errors s)
  in
  let err_flat = run false and err_height = run true in
  Alcotest.(check bool)
    (Printf.sprintf "heights help on star topology (%.3f vs %.3f)" err_height err_flat)
    true
    (err_height < err_flat +. 0.02)

let test_height_nonnegative () =
  let m = euclidean_matrix 41 20 in
  let config = { System.default_config with System.height = true } in
  let s = System.create ~config (Rng.create 42) m in
  System.run s ~rounds:100;
  for i = 0 to 19 do
    let c = System.coord s i in
    Alcotest.(check bool) "height slot stays positive" true
      (c.(System.default_config.System.dim) > 0.)
  done

let test_height_distance_definition () =
  let m = euclidean_matrix 43 10 in
  let config = { System.default_config with System.dim = 3; height = true } in
  let s = System.create ~config (Rng.create 44) m in
  let ci = System.coord s 0 and cj = System.coord s 1 in
  let eu = ref 0. in
  for d = 0 to 2 do
    let diff = ci.(d) -. cj.(d) in
    eu := !eu +. (diff *. diff)
  done;
  checkf_loose 1e-9 "predicted = euclid + h_i + h_j"
    (sqrt !eu +. ci.(3) +. cj.(3))
    (System.predicted s 0 1)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_error_traces_shape () =
  let m = euclidean_matrix 21 10 in
  let s = System.create (Rng.create 22) m in
  let traces = Trace.error_traces s ~edges:[ (0, 1); (2, 3) ] ~rounds:25 in
  Alcotest.(check int) "one trace per edge" 2 (List.length traces);
  List.iter
    (fun t -> Alcotest.(check int) "trace length" 25 (Array.length t.Trace.errors))
    traces

let test_oscillation_shape () =
  let m = euclidean_matrix 23 15 in
  let s = System.create (Rng.create 24) m in
  System.run s ~rounds:50;
  let osc = Trace.oscillation s ~rounds:20 in
  Alcotest.(check int) "one range per edge" (Matrix.edge_count m)
    (Array.length osc.Trace.ranges);
  Array.iter
    (fun r -> Alcotest.(check bool) "ranges non-negative" true (r >= 0.))
    osc.Trace.ranges

let test_oscillation_small_on_converged_euclidean () =
  let m = euclidean_matrix 25 25 in
  let s = System.create (Rng.create 26) m in
  System.run s ~rounds:500;
  let osc = Trace.oscillation s ~rounds:50 in
  Alcotest.(check bool) "median oscillation modest on metric data" true
    (Stats.median osc.Trace.ranges < 40.)

let test_steady_state_stats () =
  let m = euclidean_matrix 27 20 in
  let s = System.create (Rng.create 28) m in
  System.run s ~rounds:100;
  let st = Trace.steady_state_stats s ~rounds:10 in
  Alcotest.(check bool) "median <= p90 (error)" true
    (st.Trace.median_abs_error <= st.Trace.p90_abs_error);
  Alcotest.(check bool) "median <= p90 (movement)" true
    (st.Trace.median_movement <= st.Trace.p90_movement);
  Alcotest.(check bool) "all non-negative" true
    (st.Trace.median_abs_error >= 0. && st.Trace.median_movement >= 0.)

(* ------------------------------------------------------------------ *)
(* Protocol (event-driven)                                             *)

module Protocol = Tivaware_vivaldi.Protocol
module Sim = Tivaware_eventsim.Sim
module Engine = Tivaware_measure.Engine
module Churn = Tivaware_measure.Churn

let test_protocol_probe_accounting () =
  let m = euclidean_matrix 50 20 in
  let s = System.create (Rng.create 51) m in
  let sim = Sim.create () in
  let stats = Protocol.run sim s ~duration:10. in
  (* ~20 nodes x ~10 probes each. *)
  Alcotest.(check bool)
    (Printf.sprintf "sent %d probes" stats.Protocol.probes_sent)
    true
    (stats.Protocol.probes_sent > 100 && stats.Protocol.probes_sent < 300);
  Alcotest.(check bool) "nearly all completed" true
    (stats.Protocol.probes_completed >= stats.Protocol.probes_sent - 25);
  Alcotest.(check bool) "clock at deadline" true (Sim.now sim >= 10.)

let test_protocol_converges () =
  let m = euclidean_matrix 52 30 in
  let s = System.create (Rng.create 53) m in
  let sim = Sim.create () in
  ignore (Protocol.run sim s ~duration:400.);
  let rel = System.relative_errors s in
  Alcotest.(check bool)
    (Printf.sprintf "median rel error %.3f" (Stats.median rel))
    true
    (Stats.median rel < 0.15)

let test_protocol_churn_accounting () =
  let m = euclidean_matrix 56 25 in
  let s = System.create (Rng.create 57) m in
  let sim = Sim.create () in
  let churn = { Protocol.mean_uptime = 20.; mean_downtime = 5. } in
  let stats = Protocol.run_with_churn ~churn sim s ~duration:100. in
  Alcotest.(check bool) "failures happened" true (stats.Protocol.failures > 0);
  Alcotest.(check bool) "rejoins happened" true (stats.Protocol.rejoins > 0);
  Alcotest.(check bool) "some probes lost to churn" true
    (stats.Protocol.probes_lost > 0);
  Alcotest.(check bool) "accounting bounded" true
    (stats.Protocol.base.Protocol.probes_completed
     + stats.Protocol.probes_lost
    <= stats.Protocol.base.Protocol.probes_sent);
  (* Expected alive fraction 20/25 = 0.8. *)
  Alcotest.(check (float 1e-9)) "alive hint" 0.8 (Protocol.alive_fraction_hint churn)

(* The engine's churn plane and run_with_churn would both write the
   same outage state; the combination is refused up front. *)
let test_protocol_churn_refuses_engine_churn () =
  let m = euclidean_matrix 62 12 in
  let e =
    Engine.of_matrix
      ~config:{ Engine.default_config with Engine.churn = Some Churn.default }
      m
  in
  let s = System.create_with_engine (Rng.create 63) e in
  Alcotest.check_raises "two churn writers"
    (Invalid_argument
       "Protocol.run_with_churn: the system's engine already has a churn \
        plane; drive churn from one of the two, not both")
    (fun () -> ignore (Protocol.run_with_churn (Sim.create ()) s ~duration:10.))

let test_protocol_churn_still_useful () =
  (* Even with churn, coordinates of surviving nodes should be usable
     (errors bounded), demonstrating Vivaldi's self-healing. *)
  let m = euclidean_matrix 58 30 in
  let s = System.create (Rng.create 59) m in
  let sim = Sim.create () in
  let churn = { Protocol.mean_uptime = 120.; mean_downtime = 10. } in
  ignore (Protocol.run_with_churn ~churn sim s ~duration:400.);
  let rel = System.relative_errors s in
  Alcotest.(check bool)
    (Printf.sprintf "median rel error %.3f under churn" (Stats.median rel))
    true
    (Stats.median rel < 0.35)

let test_protocol_reset_node () =
  let m = euclidean_matrix 60 10 in
  let s = System.create (Rng.create 61) m in
  System.run s ~rounds:200;
  let before = System.error_estimate s 3 in
  Alcotest.(check bool) "converged confidence" true (before < 0.9);
  System.reset_node s 3;
  Alcotest.(check (float 0.)) "error reset" 1. (System.error_estimate s 3);
  Alcotest.(check bool) "coordinate re-randomized near origin" true
    (Tivaware_util.Vec.norm (System.coord s 3) < 3.)

let test_protocol_resumable () =
  let m = euclidean_matrix 54 15 in
  let s = System.create (Rng.create 55) m in
  let sim = Sim.create () in
  let a = Protocol.run sim s ~duration:5. in
  let t1 = Sim.now sim in
  let b = Protocol.run sim s ~duration:5. in
  Alcotest.(check bool) "clock advanced again" true (Sim.now sim >= t1 +. 5. -. 1e-9);
  Alcotest.(check bool) "both phases probed" true
    (a.Protocol.probes_sent > 0 && b.Protocol.probes_sent > 0)

(* ------------------------------------------------------------------ *)
(* Dynamic neighbors                                                   *)

let tiv_matrix seed n =
  (Tivaware_topology.Datasets.generate ~size:n ~seed Tivaware_topology.Datasets.Ds2)
    .Tivaware_topology.Generator.matrix

let test_refresh_preserves_count () =
  let m = tiv_matrix 29 60 in
  let s = System.create (Rng.create 30) m in
  System.run s ~rounds:50;
  let before = Array.length (System.neighbors s 0) in
  Dynamic_neighbors.refresh_neighbors s;
  Alcotest.(check int) "count preserved" before (Array.length (System.neighbors s 0));
  Alcotest.(check bool) "no self neighbor" false
    (Array.exists (( = ) 0) (System.neighbors s 0))

let test_refresh_drops_shrunk () =
  (* The refresh must keep the highest-prediction-ratio candidates. *)
  let m = tiv_matrix 31 60 in
  let s = System.create (Rng.create 32) m in
  System.run s ~rounds:100;
  Dynamic_neighbors.refresh_neighbors s;
  (* After refresh, a node's kept neighbors should not include edges with
     dramatically smaller ratio than the median of its candidates. *)
  let ratios =
    Array.to_list (System.neighbors s 5)
    |> List.filter_map (fun j ->
           let r = System.prediction_ratio s 5 j in
           if Float.is_nan r then None else Some r)
  in
  let sorted = List.sort compare ratios in
  (match sorted with
  | least :: _ ->
    Alcotest.(check bool) "kept neighbors not badly shrunk" true (least > 0.2)
  | [] -> Alcotest.fail "no measurable neighbors")

let test_run_schedule () =
  let m = tiv_matrix 33 50 in
  let s = System.create (Rng.create 34) m in
  let iterations = ref [] in
  Dynamic_neighbors.run
    ~on_iteration:(fun k _ -> iterations := k :: !iterations)
    s
    { Dynamic_neighbors.rounds_per_iteration = 10; iterations = 4 };
  Alcotest.(check (list int)) "callbacks in order" [ 1; 2; 3; 4 ] (List.rev !iterations);
  Alcotest.(check int) "rounds accumulated" 40 (System.rounds_elapsed s)

let test_dynamic_reduces_neighbor_severity () =
  let m = tiv_matrix 35 80 in
  let severity = Tivaware_tiv.Severity.all m in
  let mean_neighbor_severity s =
    let vals = ref [] in
    List.iter
      (fun (i, j) ->
        if Matrix.known severity i j then vals := Matrix.get severity i j :: !vals)
      (System.neighbor_edges s);
    Stats.mean (Array.of_list !vals)
  in
  let s = System.create (Rng.create 36) m in
  System.run s ~rounds:100;
  let before = mean_neighbor_severity s in
  Dynamic_neighbors.run s { Dynamic_neighbors.rounds_per_iteration = 60; iterations = 5 };
  let after = mean_neighbor_severity s in
  Alcotest.(check bool)
    (Printf.sprintf "severity reduced (%.4f -> %.4f)" before after)
    true (after < before)

(* Reference model for the flat node-state layout: the system as it
   was when every node owned a [Vec.t] coordinate (the height in its
   last slot) and the error estimates sat in a separate array.  It
   consumes the generator exactly as [System] does, so random
   sequences of [observe_rtt], [reset_node], [set_neighbors] and
   [round] must leave both with bit-identical coordinates, error
   estimates, predictions and movement statistics. *)
module Model = struct
  type t = {
    config : System.config;
    m : Matrix.t;
    rng : Rng.t;
    coords : Vec.t array;
    errors : float array;
    neighbor_sets : int array array;
    movement : Welford.t;
  }

  let min_height = 0.1

  let initial config rng =
    let storage_dim = config.System.dim + if config.System.height then 1 else 0 in
    let v = Array.init storage_dim (fun _ -> Rng.uniform rng (-1.) 1.) in
    if config.System.height then
      v.(config.System.dim) <- Rng.uniform rng min_height 1.;
    v

  (* [System.create]'s draws: the split, every neighbor set, then every
     node's initial coordinate. *)
  let create config seed m =
    let n = Matrix.size m in
    let rng = Rng.split (Rng.create seed) in
    let neighbor_sets =
      Array.init n (fun i ->
          let want = min config.System.neighbors_per_node (n - 1) in
          let picks = Rng.sample_indices rng ~n:(n - 1) ~k:want in
          Array.map (fun p -> if p >= i then p + 1 else p) picks)
    in
    let coords = Array.init n (fun _ -> initial config rng) in
    {
      config;
      m;
      rng;
      coords;
      errors = Array.make n 1.;
      neighbor_sets;
      movement = Welford.create ();
    }

  let euclidean_part_dist t xi xj =
    let acc = ref 0. in
    for d = 0 to t.config.System.dim - 1 do
      let diff = xi.(d) -. xj.(d) in
      acc := !acc +. (diff *. diff)
    done;
    sqrt !acc

  let distance t xi xj =
    if t.config.System.height then
      euclidean_part_dist t xi xj +. xi.(t.config.System.dim)
      +. xj.(t.config.System.dim)
    else Vec.dist xi xj

  let predicted t i j = distance t t.coords.(i) t.coords.(j)

  let observe_rtt t i j rtt =
    if not (Float.is_nan rtt) then begin
      let xi = t.coords.(i) and xj = t.coords.(j) in
      let dim = t.config.System.dim in
      let dist = distance t xi xj in
      let delta =
        match t.config.System.timestep with
        | System.Constant d -> d
        | System.Adaptive { cc; ce } ->
          let ei = t.errors.(i) and ej = t.errors.(j) in
          let w = if ei +. ej < 1e-12 then 0.5 else ei /. (ei +. ej) in
          let sample_error =
            if rtt < 1e-9 then 0. else abs_float (dist -. rtt) /. rtt
          in
          t.errors.(i) <-
            (sample_error *. ce *. w) +. (t.errors.(i) *. (1. -. (ce *. w)));
          cc *. w
      in
      let force = delta *. (rtt -. dist) in
      let eu = euclidean_part_dist t xi xj in
      let moved = ref 0. in
      if eu > 1e-12 then
        for d = 0 to dim - 1 do
          let u = (xi.(d) -. xj.(d)) /. eu in
          let step = force *. u in
          xi.(d) <- xi.(d) +. step;
          moved := !moved +. (step *. step)
        done
      else begin
        let u = Vec.random_unit t.rng dim in
        for d = 0 to dim - 1 do
          let step = force *. u.(d) in
          xi.(d) <- xi.(d) +. step;
          moved := !moved +. (step *. step)
        done
      end;
      if t.config.System.height && dist > 1e-12 then begin
        let h_component = (xi.(dim) +. xj.(dim)) /. dist in
        let old_h = xi.(dim) in
        xi.(dim) <- Float.max min_height (xi.(dim) +. (force *. h_component));
        let dh = xi.(dim) -. old_h in
        moved := !moved +. (dh *. dh)
      end;
      Welford.add t.movement (sqrt !moved)
    end

  let reset_node t i =
    t.coords.(i) <- initial t.config t.rng;
    t.errors.(i) <- 1.

  (* An oracle-mode engine answers exactly [Matrix.get]. *)
  let round t =
    let order = Rng.permutation t.rng (Array.length t.coords) in
    Array.iter
      (fun i ->
        let ns = t.neighbor_sets.(i) in
        if Array.length ns > 0 then begin
          let j = Rng.choice t.rng ns in
          observe_rtt t i j (Matrix.get t.m i j)
        end)
      order
end

type vivaldi_op =
  | Observe of int * int * float
  | Reset of int
  | Set_neighbors of int * int array
  | Round

let pp_vivaldi_op = function
  | Observe (i, j, rtt) -> Printf.sprintf "observe_rtt %d %d %h" i j rtt
  | Reset i -> Printf.sprintf "reset_node %d" i
  | Set_neighbors (i, ns) ->
    Printf.sprintf "set_neighbors %d [%s]" i
      (String.concat ";" (Array.to_list (Array.map string_of_int ns)))
  | Round -> "round"

let gen_vivaldi_case =
  let open QCheck2.Gen in
  let* dim = int_range 2 6 in
  let* height = bool in
  let* timestep =
    oneof
      [
        map (fun d -> System.Constant d) (float_range 0.01 0.5);
        map2
          (fun cc ce -> System.Adaptive { cc; ce })
          (float_range 0.05 0.5) (float_range 0.05 0.5);
      ]
  in
  let* n = int_range 2 10 in
  let* neighbors_per_node = int_range 1 6 in
  let* seed = int_range 0 10_000 in
  let node = int_range 0 (n - 1) in
  (* Zero, sub-1e-9 and nan samples reach the special cases; [i = j]
     (a zero euclidean distance) draws a random unit direction. *)
  let rtt =
    frequency
      [
        (12, float_range 0. 300.);
        (1, pure 0.);
        (1, pure 1e-10);
        (1, pure nan);
      ]
  in
  let neighbors i =
    map
      (fun picks ->
        Array.of_list (List.sort_uniq compare (List.filter (( <> ) i) picks)))
      (list_size (int_range 0 4) node)
  in
  let op =
    frequency
      [
        (8, map3 (fun i j r -> Observe (i, j, r)) node node rtt);
        (2, map (fun i -> Reset i) node);
        (2, node >>= fun i -> map (fun ns -> Set_neighbors (i, ns)) (neighbors i));
        (2, pure Round);
      ]
  in
  let+ ops = list_size (int_range 1 60) op in
  ( { System.dim; timestep; neighbors_per_node; height },
    n,
    seed,
    ops )

let print_vivaldi_case (config, n, seed, ops) =
  Printf.sprintf "dim=%d height=%b %s n=%d seed=%d\n%s" config.System.dim
    config.System.height
    (match config.System.timestep with
    | System.Constant d -> Printf.sprintf "Constant %h" d
    | System.Adaptive { cc; ce } -> Printf.sprintf "Adaptive %h %h" cc ce)
    n seed
    (String.concat "\n" (List.map pp_vivaldi_op ops))

let check_vivaldi_against_model (config, n, seed, ops) =
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let m = euclidean_matrix (seed + 1) n in
  let s = System.create ~config (Rng.create seed) m in
  let model = Model.create config seed m in
  let compare step =
    for i = 0 to n - 1 do
      let c = System.coord s i and mc = model.Model.coords.(i) in
      if Array.length c <> Array.length mc then
        fail "step %d: node %d coordinate has %d slots, model %d" step i
          (Array.length c) (Array.length mc);
      Array.iteri
        (fun d x ->
          if not (same x mc.(d)) then
            fail "step %d: node %d coordinate %d = %h, model %h" step i d x
              mc.(d))
        c;
      if not (same (System.error_estimate s i) model.Model.errors.(i)) then
        fail "step %d: node %d error %h, model %h" step i
          (System.error_estimate s i) model.Model.errors.(i);
      for j = 0 to n - 1 do
        if not (same (System.predicted s i j) (Model.predicted model i j)) then
          fail "step %d: predicted %d %d = %h, model %h" step i j
            (System.predicted s i j) (Model.predicted model i j)
      done
    done;
    let w = System.movement s and mw = model.Model.movement in
    if
      Welford.count w <> Welford.count mw
      || (not (same (Welford.mean w) (Welford.mean mw)))
      || not (same (Welford.variance w) (Welford.variance mw))
    then
      fail "step %d: movement (%d, %h, %h), model (%d, %h, %h)" step
        (Welford.count w) (Welford.mean w) (Welford.variance w)
        (Welford.count mw) (Welford.mean mw) (Welford.variance mw)
  in
  compare 0;
  List.iteri
    (fun step op ->
      (match op with
      | Observe (i, j, rtt) ->
        System.observe_rtt s i j rtt;
        Model.observe_rtt model i j rtt
      | Reset i ->
        System.reset_node s i;
        Model.reset_node model i
      | Set_neighbors (i, ns) ->
        System.set_neighbors s i ns;
        model.Model.neighbor_sets.(i) <- Array.copy ns
      | Round ->
        System.round s;
        Model.round model);
      compare (step + 1))
    ops;
  true

let prop_vivaldi_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"flat state = Vec.t array model"
       ~print:print_vivaldi_case gen_vivaldi_case check_vivaldi_against_model)

let () =
  Alcotest.run "vivaldi"
    [
      ( "system",
        [
          Alcotest.test_case "create shape" `Quick test_create_shape;
          Alcotest.test_case "clamped neighbors" `Quick test_neighbors_fewer_than_nodes;
          Alcotest.test_case "two-node convergence" `Quick test_two_node_convergence;
          Alcotest.test_case "euclidean convergence" `Quick test_euclidean_convergence;
          Alcotest.test_case "error estimate decreases" `Quick test_error_estimate_decreases;
          Alcotest.test_case "missing measurement noop" `Quick test_observe_missing_noop;
          Alcotest.test_case "observe moves toward target" `Quick test_observe_moves_toward_target;
          Alcotest.test_case "set_neighbors validation" `Quick test_set_neighbors_validation;
          Alcotest.test_case "neighbor_edges dedupe" `Quick test_neighbor_edges_dedupe;
          Alcotest.test_case "movement tracking" `Quick test_movement_tracking;
          Alcotest.test_case "rounds elapsed" `Quick test_rounds_elapsed;
          Alcotest.test_case "prediction ratio" `Quick test_prediction_ratio;
          prop_vivaldi_matches_model;
        ] );
      ( "height",
        [
          Alcotest.test_case "star topology benefit" `Slow test_height_config_convergence;
          Alcotest.test_case "non-negative heights" `Quick test_height_nonnegative;
          Alcotest.test_case "distance definition" `Quick test_height_distance_definition;
        ] );
      ( "trace",
        [
          Alcotest.test_case "error traces shape" `Quick test_error_traces_shape;
          Alcotest.test_case "oscillation shape" `Quick test_oscillation_shape;
          Alcotest.test_case "oscillation small on euclidean" `Quick
            test_oscillation_small_on_converged_euclidean;
          Alcotest.test_case "steady state stats" `Quick test_steady_state_stats;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "probe accounting" `Quick test_protocol_probe_accounting;
          Alcotest.test_case "converges" `Quick test_protocol_converges;
          Alcotest.test_case "churn accounting" `Quick test_protocol_churn_accounting;
          Alcotest.test_case "refuses engine churn" `Quick
            test_protocol_churn_refuses_engine_churn;
          Alcotest.test_case "useful under churn" `Quick test_protocol_churn_still_useful;
          Alcotest.test_case "reset node" `Quick test_protocol_reset_node;
          Alcotest.test_case "resumable" `Quick test_protocol_resumable;
        ] );
      ( "dynamic_neighbors",
        [
          Alcotest.test_case "refresh preserves count" `Quick test_refresh_preserves_count;
          Alcotest.test_case "refresh drops shrunk edges" `Quick test_refresh_drops_shrunk;
          Alcotest.test_case "run schedule" `Quick test_run_schedule;
          Alcotest.test_case "reduces neighbor severity" `Quick
            test_dynamic_reduces_neighbor_severity;
        ] );
    ]
