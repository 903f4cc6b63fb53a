module Rng = Tivaware_util.Rng
module Vec = Tivaware_util.Vec
module Welford = Tivaware_util.Welford
module Matrix = Tivaware_delay_space.Matrix
module Engine = Tivaware_measure.Engine
module Backend = Tivaware_backend.Delay_backend

type timestep =
  | Constant of float
  | Adaptive of { cc : float; ce : float }

type config = {
  dim : int;
  timestep : timestep;
  neighbors_per_node : int;
  height : bool;
}

let default_config =
  {
    dim = 5;
    timestep = Adaptive { cc = 0.25; ce = 0.25 };
    neighbors_per_node = 32;
    height = false;
  }

let min_height = 0.1

type t = {
  config : config;
  backend : Backend.t;  (* ground truth, for evaluation only *)
  engine : Engine.t;  (* every observation probes through here *)
  rng : Rng.t;
  (* Every node's state in one unboxed array, node [i] at
     [i * stride]: [dim] coordinates, the height when [config.height],
     then the local error estimate.  An update reads and writes two
     runs of adjacent floats, with no per-node block to chase. *)
  stride : int;
  state : float array;
  neighbor_sets : int array array;
  mutable movement : Welford.t;
  mutable rounds : int;
}

let random_neighbors rng n self count =
  let want = min count (n - 1) in
  let picks = Rng.sample_indices rng ~n:(n - 1) ~k:want in
  (* Indices in [0, n-1) skipping self. *)
  Array.map (fun p -> if p >= self then p + 1 else p) picks

(* With heights every node carries one slot past its coordinates (the
   height, kept >= min_height). *)
let storage_dim config = config.dim + if config.height then 1 else 0

(* The error estimate of the node whose state starts at offset [o]. *)
let[@inline] error_slot t o = o + t.stride - 1

(* Small random initial coordinates break symmetry without starting far
   from the origin; the error estimate starts at 1. *)
let reset_node t i =
  let o = i * t.stride and dim = t.config.dim in
  let s = t.state in
  for d = 0 to storage_dim t.config - 1 do
    s.(o + d) <- Rng.uniform t.rng (-1.) 1.
  done;
  if t.config.height then s.(o + dim) <- Rng.uniform t.rng min_height 1.;
  s.(error_slot t o) <- 1.

let create_with_engine ?(config = default_config) rng engine =
  let backend = Backend.of_engine engine in
  let n = Backend.size backend in
  assert (n >= 2);
  let rng = Rng.split rng in
  (* Neighbor sets draw first, then every node's initial state, in node
     order: the order the generator has always been consumed in. *)
  let neighbor_sets =
    Array.init n (fun i -> random_neighbors rng n i config.neighbors_per_node)
  in
  let stride = storage_dim config + 1 in
  let t =
    {
      config;
      backend;
      engine;
      rng;
      stride;
      state = Array.make (n * stride) 0.;
      neighbor_sets;
      movement = Welford.create ();
      rounds = 0;
    }
  in
  for i = 0 to n - 1 do
    reset_node t i
  done;
  t

let create ?config rng matrix =
  create_with_engine ?config rng (Engine.of_matrix matrix)

let config t = t.config
let size t = Array.length t.neighbor_sets
let backend t = t.backend

let matrix t =
  match Backend.matrix t.backend with
  | Some m -> m
  | None -> invalid_arg "System.matrix: not a dense (matrix-backed) system"

let engine t = t.engine
let rng t = t.rng
let coord t i = Array.sub t.state (i * t.stride) (t.stride - 1)
let error_estimate t i = t.state.(error_slot t (i * t.stride))

(* Distance between the nodes at offsets [oi] and [oj] over the
   euclidean part only (ignores the height slot).  Without heights this
   is the whole coordinate, summed in [Vec.dist]'s order. *)
let[@inline] euclidean_part_dist t oi oj =
  let s = t.state in
  let acc = ref 0. in
  for d = 0 to t.config.dim - 1 do
    let diff = s.(oi + d) -. s.(oj + d) in
    acc := !acc +. (diff *. diff)
  done;
  sqrt !acc

let[@inline] distance t oi oj =
  if t.config.height then
    let dim = t.config.dim in
    euclidean_part_dist t oi oj +. t.state.(oi + dim) +. t.state.(oj + dim)
  else euclidean_part_dist t oi oj

let predicted t i j = distance t (i * t.stride) (j * t.stride)

let prediction_ratio t i j =
  let d = Backend.query t.backend i j in
  if Float.is_nan d || d < 1e-9 then nan else predicted t i j /. d

let neighbors t i = Array.copy t.neighbor_sets.(i)

let set_neighbors t i ns =
  if Array.exists (fun j -> j = i) ns then
    invalid_arg "System.set_neighbors: self-loop";
  Array.iter
    (fun j ->
      if j < 0 || j >= size t then
        invalid_arg
          (Printf.sprintf
             "System.set_neighbors: neighbor %d of node %d is outside [0, %d)" j
             i (size t)))
    ns;
  t.neighbor_sets.(i) <- Array.copy ns

let neighbor_edges t =
  let seen = Hashtbl.create 1024 in
  Array.iteri
    (fun i ns ->
      Array.iter
        (fun j ->
          let key = if i < j then (i, j) else (j, i) in
          Hashtbl.replace seen key ())
        ns)
    t.neighbor_sets;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let observe_rtt t i j rtt =
  if not (Float.is_nan rtt) then begin
    let s = t.state in
    let oi = i * t.stride and oj = j * t.stride in
    let dim = t.config.dim in
    let dist = distance t oi oj in
    let delta =
      match t.config.timestep with
      | Constant d -> d
      | Adaptive { cc; ce } ->
        let ei_slot = error_slot t oi in
        let ei = s.(ei_slot) and ej = s.(error_slot t oj) in
        let w = if ei +. ej < 1e-12 then 0.5 else ei /. (ei +. ej) in
        (* Update the local error estimate with the sample error. *)
        let sample_error = if rtt < 1e-9 then 0. else abs_float (dist -. rtt) /. rtt in
        s.(ei_slot) <- (sample_error *. ce *. w) +. (s.(ei_slot) *. (1. -. (ce *. w)));
        cc *. w
    in
    let force = delta *. (rtt -. dist) in
    (* Euclidean part: move along the unit vector from j toward i. *)
    let eu = euclidean_part_dist t oi oj in
    let moved = ref 0. in
    if eu > 1e-12 then
      for d = 0 to dim - 1 do
        let u = (s.(oi + d) -. s.(oj + d)) /. eu in
        let step = force *. u in
        s.(oi + d) <- s.(oi + d) +. step;
        moved := !moved +. (step *. step)
      done
    else begin
      let u = Vec.random_unit t.rng dim in
      for d = 0 to dim - 1 do
        let step = force *. u.(d) in
        s.(oi + d) <- s.(oi + d) +. step;
        moved := !moved +. (step *. step)
      done
    end;
    (* Height part: the [x, h] unit vector's height component is
       (h_i + h_j) / dist (Dabek et al.), with the height floored. *)
    if t.config.height && dist > 1e-12 then begin
      let hi = oi + dim in
      let h_component = (s.(hi) +. s.(oj + dim)) /. dist in
      let old_h = s.(hi) in
      s.(hi) <- Float.max min_height (s.(hi) +. (force *. h_component));
      let dh = s.(hi) -. old_h in
      moved := !moved +. (dh *. dh)
    end;
    Welford.add t.movement (sqrt !moved)
  end

let observe t i j = observe_rtt t i j (Engine.rtt ~label:"vivaldi" t.engine i j)

let round t =
  let n = size t in
  let started = Engine.now t.engine in
  let order = Rng.permutation t.rng n in
  Array.iter
    (fun i ->
      let ns = t.neighbor_sets.(i) in
      if Array.length ns > 0 then observe t i (Rng.choice t.rng ns))
    order;
  (* One synchronous round lasts at least one virtual second of
     measurement-plane time (budget refill, cache aging).  With a
     time-charging engine the probes themselves advance the clock, and
     a round whose measurements cost more than a second takes exactly
     what they cost — convergence time becomes measurement-aware. *)
  let elapsed = Engine.now t.engine -. started in
  if elapsed < 1. then Engine.advance t.engine (1. -. elapsed);
  t.rounds <- t.rounds + 1

let run t ~rounds =
  for _ = 1 to rounds do
    round t
  done

let rounds_elapsed t = t.rounds

let movement t = t.movement

let reset_movement t = t.movement <- Welford.create ()

let absolute_errors t =
  let out = ref [] in
  Matrix.iter_edges (matrix t) (fun i j d ->
      out := abs_float (predicted t i j -. d) :: !out);
  Array.of_list !out

let relative_errors t =
  let out = ref [] in
  Matrix.iter_edges (matrix t) (fun i j d ->
      if d > 1e-9 then out := (abs_float (predicted t i j -. d) /. d) :: !out);
  Array.of_list !out

(* Sampled counterparts for backends where iterating every pair is off
   the table (a 100k-node lazy space has 5e9 pairs). *)
let sampled_errors t rng ~pairs =
  let n = size t in
  let abs_out = ref [] and rel_out = ref [] in
  for _ = 1 to pairs do
    let i = Rng.int rng n in
    let j =
      let p = Rng.int rng (n - 1) in
      if p >= i then p + 1 else p
    in
    let d = Backend.query t.backend i j in
    if not (Float.is_nan d) then begin
      let err = abs_float (predicted t i j -. d) in
      abs_out := err :: !abs_out;
      if d > 1e-9 then rel_out := (err /. d) :: !rel_out
    end
  done;
  (Array.of_list !abs_out, Array.of_list !rel_out)

let sampled_absolute_errors t rng ~pairs = fst (sampled_errors t rng ~pairs)
let sampled_relative_errors t rng ~pairs = snd (sampled_errors t rng ~pairs)

let predictor t = predicted t
