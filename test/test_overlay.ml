(* Tests for the overlay multicast library. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Multicast = Tivaware_overlay.Multicast
module Delay_backend = Tivaware_backend.Delay_backend

let qcheck ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:200.

let build_oracle ?config seed n =
  let m = euclidean_matrix seed n in
  let order = Rng.permutation (Rng.create (seed + 1)) n in
  (m, Multicast.build_backend ?config (Delay_backend.dense m) ~join_order:order)

(* Walk to the root; returns depth or None on a cycle/corruption. *)
let depth_of t node =
  let rec ascend cur steps =
    if steps < 0 then None
    else if cur = Multicast.root t then Some 0
    else begin
      match Multicast.parent t cur with
      | None -> None
      | Some p -> Option.map (fun d -> d + 1) (ascend p (steps - 1))
    end
  in
  ascend node 10_000

let check_tree_invariants t n =
  let members = Multicast.members t in
  (* Every member reaches the root without cycles. *)
  List.iter
    (fun node ->
      match depth_of t node with
      | Some _ -> ()
      | None -> Alcotest.failf "node %d cannot reach the root" node)
    members;
  (* Degree counters match actual children. *)
  let actual = Array.make n 0 in
  List.iter
    (fun node ->
      match Multicast.parent t node with
      | Some p -> actual.(p) <- actual.(p) + 1
      | None -> ())
    members;
  List.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "degree counter of %d" node)
        actual.(node) (Multicast.children_count t node))
    members

let test_build_everyone_joins () =
  let _, t = build_oracle 1 60 in
  Alcotest.(check int) "all nodes join a complete matrix" 60
    (List.length (Multicast.members t))

let test_build_invariants () =
  let _, t = build_oracle 2 80 in
  check_tree_invariants t 80

let test_degree_cap_respected () =
  let config = { Multicast.default_config with Multicast.max_degree = 2 } in
  let m = euclidean_matrix 3 50 in
  let order = Rng.permutation (Rng.create 4) 50 in
  let t =
    Multicast.build_backend ~config (Delay_backend.dense m) ~join_order:order
  in
  List.iter
    (fun node ->
      Alcotest.(check bool) "degree cap" true (Multicast.children_count t node <= 2))
    (Multicast.members t);
  check_tree_invariants t 50

let test_root_properties () =
  let m = euclidean_matrix 5 20 in
  let order = Rng.permutation (Rng.create 6) 20 in
  let t = Multicast.build_backend (Delay_backend.dense m) ~join_order:order in
  Alcotest.(check int) "root is first joiner" order.(0) (Multicast.root t);
  Alcotest.(check bool) "root has no parent" true
    (Multicast.parent t (Multicast.root t) = None)

let test_unjoinable_nodes_left_out () =
  (* A node with no measured edge to anyone cannot join. *)
  let m = Matrix.create 4 in
  Matrix.set m 0 1 10.;
  Matrix.set m 0 2 10.;
  Matrix.set m 1 2 10.;
  (* node 3 fully unmeasured *)
  let t =
    Multicast.build_backend (Delay_backend.dense m) ~join_order:[| 0; 1; 2; 3 |]
  in
  Alcotest.(check int) "three members" 3 (List.length (Multicast.members t));
  Alcotest.(check bool) "node 3 out" true (Multicast.parent t 3 = None)

let test_oracle_attaches_nearest () =
  (* With unconstrained degree, each joiner picks its measured-nearest
     earlier member. *)
  let config = { Multicast.default_config with Multicast.max_degree = 1000 } in
  let m = euclidean_matrix 7 30 in
  let order = Rng.permutation (Rng.create 8) 30 in
  let t =
    Multicast.build_backend ~config (Delay_backend.dense m) ~join_order:order
  in
  Array.iteri
    (fun idx node ->
      if idx > 0 then begin
        match Multicast.parent t node with
        | None -> Alcotest.fail "should have joined"
        | Some p ->
          let pd = Matrix.get m node p in
          for k = 0 to idx - 1 do
            Alcotest.(check bool) "parent is the nearest earlier member" true
              (Matrix.get m node order.(k) >= pd -. 1e-9)
          done
      end)
    order

let test_evaluate_fields () =
  let m, t = build_oracle 9 40 in
  let metrics = Multicast.evaluate_backend t (Delay_backend.dense m) in
  Alcotest.(check int) "members" 40 metrics.Multicast.members;
  Alcotest.(check bool) "stretch >= 1" true (metrics.Multicast.median_stretch >= 1. -. 1e-9);
  Alcotest.(check bool) "p90 >= median" true
    (metrics.Multicast.p90_stretch >= metrics.Multicast.median_stretch);
  Alcotest.(check bool) "fanout within cap" true
    (metrics.Multicast.max_fanout <= Multicast.default_config.Multicast.max_degree)

let test_refresh_keeps_invariants () =
  let data = Datasets.generate ~size:100 ~seed:10 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let truth = Delay_backend.dense m in
  let order = Rng.permutation (Rng.create 11) 100 in
  let t = Multicast.build_backend truth ~join_order:order in
  let rng = Rng.create 12 in
  for _ = 1 to 5 do
    ignore (Multicast.refresh_backend t rng truth)
  done;
  check_tree_invariants t 100

let test_refresh_improves_bad_tree () =
  (* Build the tree with an adversarial predictor (farthest member),
     then refresh with the oracle: stretch must improve. *)
  let data = Datasets.generate ~size:120 ~seed:13 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let truth = Delay_backend.dense m in
  let order = Rng.permutation (Rng.create 14) 120 in
  let anti a b =
    let d = Matrix.get m a b in
    if Float.is_nan d then nan else -.d
  in
  let t = Multicast.build_backend ~predict:anti truth ~join_order:order in
  let before = (Multicast.evaluate_backend t truth).Multicast.median_stretch in
  let rng = Rng.create 15 in
  for _ = 1 to 5 do
    ignore (Multicast.refresh_backend t rng truth)
  done;
  let after = (Multicast.evaluate_backend t truth).Multicast.median_stretch in
  Alcotest.(check bool)
    (Printf.sprintf "stretch improved (%.2f -> %.2f)" before after)
    true (after < before);
  check_tree_invariants t 120

let test_engine_build_refresh_equivalence () =
  (* Build and refresh routed through a default-config measurement
     engine must be bit-for-bit identical to the oracle-predictor path:
     same parents, same metrics, after the same refresh schedule. *)
  let module Engine = Tivaware_measure.Engine in
  let data = Datasets.generate ~size:100 ~seed:16 Datasets.Ds2 in
  let m = data.Generator.matrix in
  (* Reference: joins and refreshes over plain [Matrix.get]. *)
  let truth = Delay_backend.of_fn ~size:100 (Matrix.get m) in
  let order = Rng.permutation (Rng.create 17) 100 in
  let a = Multicast.build_backend truth ~join_order:order in
  let engine = Engine.of_matrix m in
  let b = Multicast.build_engine engine ~join_order:order in
  let same_trees x y =
    Alcotest.(check (list int)) "same members" (Multicast.members x)
      (Multicast.members y);
    List.iter
      (fun node ->
        Alcotest.(check (option int))
          (Printf.sprintf "same parent of %d" node)
          (Multicast.parent x node) (Multicast.parent y node))
      (Multicast.members x);
    let mx = Multicast.evaluate_backend x truth
    and my = Multicast.evaluate_backend y truth in
    Alcotest.(check (float 0.)) "same median stretch"
      mx.Multicast.median_stretch my.Multicast.median_stretch;
    Alcotest.(check (float 0.)) "same p90 stretch" mx.Multicast.p90_stretch
      my.Multicast.p90_stretch
  in
  same_trees a b;
  (* Identical rng seeds drive identical refresh decisions. *)
  let ra = Rng.create 18 and rb = Rng.create 18 in
  for _ = 1 to 5 do
    ignore (Multicast.refresh_backend a ra truth);
    ignore (Multicast.refresh_engine b rb engine)
  done;
  same_trees a b;
  let st = Engine.stats engine in
  Alcotest.(check bool) "engine probed" true
    (st.Tivaware_measure.Probe_stats.requests > 0);
  Alcotest.(check (float 0.)) "clock untouched" 0. (Engine.now engine)

let prop_build_invariants_random =
  qcheck "random worlds keep tree invariants"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let n = 30 + (seed mod 20) in
      let m = euclidean_matrix seed n in
      let order = Rng.permutation (Rng.create (seed + 1)) n in
      let t = Multicast.build_backend (Delay_backend.dense m) ~join_order:order in
      let ok = ref true in
      List.iter
        (fun node -> if depth_of t node = None then ok := false)
        (Multicast.members t);
      !ok)

(* ------------------------------------------------------------------ *)
(* Refresh differential: the list-based loop [refresh_engine] replaced  *)

(* The tree's state, read through the public accessors so the reference
   loop below can mutate it. *)
type mirror = {
  root : int;
  parent : int array;
  joined : bool array;
  degree : int array;
  max_degree : int;
  refresh_sample : int;
}

let mirror_of config t n =
  let joined = Array.make n false in
  List.iter (fun v -> joined.(v) <- true) (Multicast.members t);
  {
    root = Multicast.root t;
    parent =
      Array.init n (fun v -> Option.value ~default:(-1) (Multicast.parent t v));
    joined;
    degree = Array.init n (Multicast.children_count t);
    max_degree = config.Multicast.max_degree;
    refresh_sample = config.Multicast.refresh_sample;
  }

let reference_in_subtree r node candidate =
  let rec ascend cur steps =
    if steps < 0 then false
    else if cur = node then true
    else if cur = r.root || cur < 0 then false
    else ascend r.parent.(cur) (steps - 1)
  in
  ascend candidate (Array.length r.parent)

let reference_members r =
  List.filter (fun v -> r.joined.(v)) (List.init (Array.length r.joined) Fun.id)

let reference_root_delays r ~predict =
  let out = Array.make (Array.length r.parent) nan in
  out.(r.root) <- 0.;
  let rec resolve node =
    if not (Float.is_nan out.(node)) then out.(node)
    else begin
      let p = r.parent.(node) in
      let d = resolve p +. predict node p in
      out.(node) <- d;
      d
    end
  in
  List.iter (fun node -> ignore (resolve node)) (reference_members r);
  out

let reference_refresh r rng ~known ~predict =
  let all_members = Array.of_list (reference_members r) in
  let order = Array.copy all_members in
  Rng.shuffle rng order;
  let switches = ref 0 in
  let root_delay = reference_root_delays r ~predict in
  let via candidate p = root_delay.(candidate) +. p in
  Array.iter
    (fun node ->
      if node <> r.root && r.joined.(node) then begin
        let current = r.parent.(node) in
        let current_cost = via current (predict node current) in
        let sample =
          List.init r.refresh_sample (fun _ -> Rng.choice rng all_members)
        in
        let eligible =
          List.filter (fun c -> not (reference_in_subtree r node c)) sample
        in
        let best =
          List.fold_left
            (fun acc cand ->
              if
                cand <> node && cand <> current && r.joined.(cand)
                && r.degree.(cand) < r.max_degree
                && known node cand
              then begin
                let p = predict node cand in
                if Float.is_nan p || Float.is_nan root_delay.(cand) then acc
                else begin
                  let cost = via cand p in
                  match acc with
                  | Some (_, bc) when bc <= cost -> acc
                  | _ -> Some (cand, cost)
                end
              end
              else acc)
            None eligible
        in
        match best with
        | Some (better, cost)
          when Float.is_nan current_cost || cost < current_cost ->
          r.degree.(current) <- r.degree.(current) - 1;
          r.parent.(node) <- better;
          r.degree.(better) <- r.degree.(better) + 1;
          incr switches
        | _ -> ()
      end)
    order;
  !switches

(* Two identical engines (TTL'd cache, loss, charged time, missing
   pairs) and two copies of one tree and one generator: the reference
   loop and [refresh_engine] must switch the same parents, probe the
   same pairs in the same order and leave the generator in the same
   state, pass after pass. *)
let prop_refresh_matches_reference =
  qcheck ~count:40 "refresh_engine = list-based reference"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let module Engine = Tivaware_measure.Engine in
      let module Fault = Tivaware_measure.Fault in
      let module Oracle = Tivaware_measure.Oracle in
      let module Probe_stats = Tivaware_measure.Probe_stats in
      let module Summary = Tivaware_obs.Summary in
      let g = Rng.create seed in
      let n = 20 + Rng.int g 60 in
      let m = euclidean_matrix seed n in
      (* Delays rounded to 10 ms make equal-cost candidates common, so
         first-wins tie-breaking is exercised; some pairs are missing. *)
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          Matrix.set m i j
            (if Rng.bernoulli g 0.03 then nan
             else 10. *. Float.round (Matrix.get m i j /. 10.))
        done
      done;
      let engine_config =
        {
          Engine.default_config with
          Engine.fault =
            {
              Fault.default with
              Fault.loss = Rng.uniform g 0. 0.2;
              retries = Rng.int g 2;
              timeout = 200.;
            };
          cache_ttl = Some (Rng.uniform g 0.5 30.);
          cache_capacity =
            (if Rng.bool g then Some (8 + Rng.int g 200) else None);
          charge_time = true;
          seed;
        }
      in
      let config =
        {
          Multicast.max_degree = 2 + Rng.int g 5;
          refresh_sample = 1 + Rng.int g 20;
        }
      in
      let joining = max 2 (n - Rng.int g (n / 4)) in
      let order = Array.sub (Rng.permutation g n) 0 joining in
      let ea = Engine.of_matrix ~config:engine_config m in
      let eb = Engine.of_matrix ~config:engine_config m in
      ignore (Multicast.build_engine ~config ea ~join_order:order);
      let t = Multicast.build_engine ~config eb ~join_order:order in
      let r = mirror_of config t n in
      let known i j =
        i <> j && not (Float.is_nan (Oracle.query (Engine.oracle ea) i j))
      in
      let predict = Engine.rtt ~label:"multicast" ea in
      let ra = Rng.create (seed + 1) and rb = Rng.create (seed + 1) in
      for pass = 1 to 4 do
        let expected = reference_refresh r ra ~known ~predict in
        let got = Multicast.refresh_engine t rb eb in
        let msg what = Printf.sprintf "seed %d pass %d: %s" seed pass what in
        Alcotest.(check int) (msg "switches") expected got;
        for v = 0 to n - 1 do
          Alcotest.(check int) (msg (Printf.sprintf "parent of %d" v))
            r.parent.(v)
            (Option.value ~default:(-1) (Multicast.parent t v));
          Alcotest.(check int) (msg (Printf.sprintf "degree of %d" v))
            r.degree.(v)
            (Multicast.children_count t v)
        done;
        Alcotest.(check string) (msg "probe stats")
          (Format.asprintf "%a" Probe_stats.pp (Engine.stats ea))
          (Format.asprintf "%a" Probe_stats.pp (Engine.stats eb));
        Alcotest.(check string) (msg "obs summary")
          (Summary.to_string ~clock:(Engine.now ea) (Engine.obs ea))
          (Summary.to_string ~clock:(Engine.now eb) (Engine.obs eb))
      done;
      Alcotest.(check int64) "next draw" (Rng.int64 ra) (Rng.int64 rb);
      true)

(* ------------------------------------------------------------------ *)
(* Child index against the O(n) parent scan it replaced                *)

(* The scan [children] used to run: every joined non-root node whose
   parent is [node], ascending. *)
let scan_children t n node =
  List.filter
    (fun c -> Multicast.parent t c = Some node)
    (List.init n Fun.id)

(* Every node's children equal the scan, a joined node's
   [children_count] is the scan's length, and every joined non-root
   member hangs off a member. *)
let check_index t n what =
  let joined = Array.make n false in
  List.iter (fun v -> joined.(v) <- true) (Multicast.members t);
  for v = 0 to n - 1 do
    let expected = scan_children t n v in
    Alcotest.(check (list int))
      (Printf.sprintf "%s: children of %d" what v)
      expected (Multicast.children t v);
    if joined.(v) then
      Alcotest.(check int)
        (Printf.sprintf "%s: children_count of %d" what v)
        (List.length expected)
        (Multicast.children_count t v);
    match Multicast.parent t v with
    | Some p when not joined.(p) ->
      Alcotest.failf "%s: member %d under detached parent %d" what v p
    | _ -> ()
  done

(* Random sequences of build, refresh and repair (random liveness, the
   root included) over worlds with missing pairs: after every operation
   the index must agree with the scan. *)
let prop_child_index_matches_scan =
  qcheck ~count:25 "child index = O(n) parent scan"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = Rng.create seed in
      let n = 2 + Rng.int g 299 in
      let m = euclidean_matrix seed n in
      let holes = Rng.uniform g 0. 0.3 in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Rng.bernoulli g holes then Matrix.set m i j nan
        done
      done;
      let backend = Delay_backend.dense m in
      let config =
        {
          Multicast.max_degree = 1 + Rng.int g 6;
          refresh_sample = 1 + Rng.int g 16;
        }
      in
      let build () =
        let joining = 1 + Rng.int g n in
        let order = Array.sub (Rng.permutation g n) 0 joining in
        Multicast.build_backend ~config backend ~join_order:order
      in
      let t = ref (build ()) in
      check_index !t n (Printf.sprintf "seed %d build" seed);
      for step = 1 to 12 do
        let what = Printf.sprintf "seed %d step %d" seed step in
        (match Rng.int g 5 with
         | 0 -> t := build ()
         | 1 | 2 -> ignore (Multicast.refresh_backend !t g backend)
         | _ ->
           let down = Rng.uniform g 0. 0.5 in
           let up = Array.init n (fun _ -> not (Rng.bernoulli g down)) in
           ignore
             (Multicast.repair !t g backend
                ~predict:(Delay_backend.query backend)
                ~up:(fun v -> up.(v))));
        check_index !t n what
      done;
      true)

(* Orphan 0 re-attaches to orphan 1, which is visited later, finds no
   live attachment point and leaves the tree.  Repair must not leave 0
   under the detached 1: it re-grafts 0 to the root in the same pass.

   Fan-out 1 builds the chain 4 -> 2 -> 1 -> 3 -> 0; nodes 2 and 3 go
   down.  Node 1 has no edge to the root; node 0 reaches the root too,
   but prefers the nearer 1.  Left stranded, 0 would close a cycle when
   1 rejoins under it. *)
let test_repair_strands_no_member () =
  let m = Matrix.create 5 in
  List.iter
    (fun (i, j, d) -> Matrix.set m i j d)
    [ (4, 2, 10.); (2, 1, 10.); (1, 3, 10.); (3, 0, 10.); (0, 1, 10.); (0, 4, 100.) ];
  let backend = Delay_backend.dense m in
  let config = { Multicast.default_config with Multicast.max_degree = 1 } in
  let t =
    Multicast.build_backend ~config backend ~join_order:[| 4; 2; 1; 3; 0 |]
  in
  Alcotest.(check (list (option int))) "chain"
    [ Some 3; Some 2; Some 4; Some 1; None ]
    (List.init 5 (Multicast.parent t));
  let r =
    Multicast.repair t (Rng.create 1) backend
      ~predict:(Delay_backend.query backend)
      ~up:(fun v -> v <> 2 && v <> 3)
  in
  Alcotest.(check int) "detached" 2 r.Multicast.detached;
  Alcotest.(check int) "rejoined" 1 r.Multicast.rejoined;
  Alcotest.(check (list (option int))) "0 under the root, 1 rejoined under 0"
    [ Some 4; Some 0; None; None; None ]
    (List.init 5 (Multicast.parent t));
  Alcotest.(check (list int)) "1 has no children" [] (Multicast.children t 1);
  check_index t 5 "after repair"

let () =
  Alcotest.run "overlay"
    [
      ( "multicast",
        [
          Alcotest.test_case "everyone joins" `Quick test_build_everyone_joins;
          Alcotest.test_case "build invariants" `Quick test_build_invariants;
          Alcotest.test_case "degree cap" `Quick test_degree_cap_respected;
          Alcotest.test_case "root properties" `Quick test_root_properties;
          Alcotest.test_case "unjoinable nodes" `Quick test_unjoinable_nodes_left_out;
          Alcotest.test_case "oracle attaches nearest" `Quick test_oracle_attaches_nearest;
          Alcotest.test_case "evaluate fields" `Quick test_evaluate_fields;
          Alcotest.test_case "refresh keeps invariants" `Quick test_refresh_keeps_invariants;
          Alcotest.test_case "refresh improves bad tree" `Quick test_refresh_improves_bad_tree;
          Alcotest.test_case "engine = oracle build/refresh" `Quick
            test_engine_build_refresh_equivalence;
          prop_build_invariants_random;
          prop_refresh_matches_reference;
          prop_child_index_matches_scan;
          Alcotest.test_case "repair strands no member" `Quick
            test_repair_strands_no_member;
        ] );
    ]
