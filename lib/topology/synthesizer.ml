module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Clustering = Tivaware_delay_space.Clustering

type model = {
  source_size : int;
  fractions : float array;  (* per cluster, noise last *)
  buckets : float array array array;  (* buckets.(a).(b) = delay samples, a <= b *)
  missing_fraction : float;
}

let source_size m = m.source_size
let cluster_fractions m = Array.copy m.fractions
let missing_fraction m = m.missing_fraction

let analyze ?(clusters = 3) ?(radius_ms = 50.) matrix =
  let n = Matrix.size matrix in
  let assignment = Clustering.cluster ~k:clusters ~radius_ms matrix in
  let k = Array.length assignment.Clustering.clusters in
  (* Bucket index: cluster id, or k for the noise pseudo-cluster. *)
  let bucket_of node =
    let l = assignment.Clustering.label.(node) in
    if l < 0 then k else l
  in
  let nbuckets = k + 1 in
  let samples = Array.init nbuckets (fun _ -> Array.make nbuckets []) in
  Matrix.iter_edges matrix (fun i j d ->
      let a = bucket_of i and b = bucket_of j in
      let a, b = if a <= b then (a, b) else (b, a) in
      samples.(a).(b) <- d :: samples.(a).(b));
  let buckets =
    Array.map (Array.map (fun l -> Array.of_list l)) samples
  in
  (* Every bucket that can be drawn from must have data.  Empty clusters
     never get drawn (fraction 0), so only check populated pairs. *)
  let counts =
    Array.init nbuckets (fun c ->
        if c = k then Array.length assignment.Clustering.noise
        else Array.length assignment.Clustering.clusters.(c))
  in
  for a = 0 to nbuckets - 1 do
    for b = a to nbuckets - 1 do
      let pair_possible =
        if a = b then counts.(a) >= 2 else counts.(a) >= 1 && counts.(b) >= 1
      in
      if pair_possible && Array.length buckets.(a).(b) = 0 then
        invalid_arg
          (Printf.sprintf "Synthesizer.analyze: bucket (%d, %d) has no measured edge" a b)
    done
  done;
  let pairs = n * (n - 1) / 2 in
  {
    source_size = n;
    fractions =
      Array.init nbuckets (fun c -> float_of_int counts.(c) /. float_of_int n);
    buckets;
    missing_fraction =
      (if pairs = 0 then 0.
       else float_of_int (pairs - Matrix.edge_count matrix) /. float_of_int pairs);
  }

let assign_buckets rng model ~size =
  assert (size >= 2);
  let nbuckets = Array.length model.fractions in
  (* Assign nodes to buckets by the source proportions (largest-remainder
     rounding keeps totals exact). *)
  let counts =
    Array.map (fun f -> int_of_float (floor (f *. float_of_int size))) model.fractions
  in
  let assigned = Array.fold_left ( + ) 0 counts in
  let order = Array.init nbuckets Fun.id in
  Array.sort
    (fun a b ->
      compare
        (model.fractions.(b) -. floor (model.fractions.(b) *. float_of_int size) /. float_of_int size)
        (model.fractions.(a) -. floor (model.fractions.(a) *. float_of_int size) /. float_of_int size))
    order;
  for r = 0 to size - assigned - 1 do
    let c = order.(r mod nbuckets) in
    counts.(c) <- counts.(c) + 1
  done;
  let bucket_of = Array.make size 0 in
  let node = ref 0 in
  Array.iteri
    (fun c count ->
      for _ = 1 to count do
        bucket_of.(!node) <- c;
        incr node
      done)
    counts;
  Rng.shuffle rng bucket_of;
  bucket_of

let bucket_labels model bucket_of =
  let noise_bucket = Array.length model.fractions - 1 in
  Array.map (fun b -> if b = noise_bucket then -1 else b) bucket_of

let draw_delay ~jitter rng model ~a ~b =
  assert (jitter >= 0. && jitter < 1.);
  if Rng.bernoulli rng model.missing_fraction then nan
  else begin
    let a, b = if a <= b then (a, b) else (b, a) in
    let samples = model.buckets.(a).(b) in
    if Array.length samples = 0 then nan
    else begin
      let v = Rng.choice rng samples in
      v *. Rng.uniform rng (1. -. jitter) (1. +. jitter)
    end
  end

let synthesize_with_clusters ?(jitter = 0.05) rng model ~size =
  assert (jitter >= 0. && jitter < 1.);
  let bucket_of = assign_buckets rng model ~size in
  let labels = bucket_labels model bucket_of in
  let matrix =
    Matrix.init size (fun i j ->
        draw_delay ~jitter rng model ~a:bucket_of.(i) ~b:bucket_of.(j))
  in
  (matrix, labels)

let synthesize ?jitter rng model ~size =
  fst (synthesize_with_clusters ?jitter rng model ~size)
