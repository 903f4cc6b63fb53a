module Rng = Tivaware_util.Rng

type link = {
  loss : float;
  jitter : float;
  outage : float;
  extra_delay : float;
}

let clean = { loss = 0.; jitter = 0.; outage = 0.; extra_delay = 0. }

type kind =
  | Uniform of link
  | Fn of (int -> int -> link)

type t = {
  name : string;
  kind : kind;
}

let name t = t.name

let link t i j =
  match t.kind with
  | Uniform l -> l
  | Fn f -> if i = j then clean else f i j

let uniform ?(name = "uniform") l = { name; kind = Uniform l }

let of_rates ~loss ~jitter = uniform { clean with loss; jitter }

let make name f = { name; kind = Fn f }

(* ------------------------------------------------------------------ *)
(* Topology-derived profile                                            *)

(* Link classes mirror Tivaware_topology.Generator.link_class without a
   dependency on the topology library: the caller hands us its cluster
   labels ([-1] = noise host). *)
let class_of_labels cluster_of i j =
  let ci = cluster_of.(i) and cj = cluster_of.(j) in
  if ci < 0 || cj < 0 then `Access
  else if ci = cj then `Intra
  else `Inter

(* Scaling factors chosen so a topology profile with base rates
   (loss, jitter) concentrates loss on access links of poorly-connected
   hosts and jitter on long-haul inter-cluster paths, while keeping the
   same order of magnitude as the uniform profile with equal bases. *)
let topology ?(name = "topo") ~loss ~jitter ~cluster_of () =
  let n = Array.length cluster_of in
  let access = { clean with loss = Float.min 0.95 (3. *. loss); jitter } in
  let inter =
    { clean with loss = loss /. 2.; jitter = Float.min 0.9 (2. *. jitter) }
  in
  let intra = { clean with loss = loss /. 4.; jitter = jitter /. 4. } in
  make name (fun i j ->
      if i < 0 || i >= n || j < 0 || j >= n then clean
      else begin
        match class_of_labels cluster_of i j with
        | `Access -> access
        | `Inter -> inter
        | `Intra -> intra
      end)

(* ------------------------------------------------------------------ *)
(* Seeded-random heterogeneous profile                                 *)

(* Every directed link owns an independent deterministic stream derived
   from (seed, i, j), so link parameters do not depend on the order in
   which links are queried and two profiles with the same seed agree
   link for link. *)
let link_rng ~seed i j = Rng.create ((((seed * 31) + i) * 1_000_003) + j)

let random ?(name = "random") ?(outage = 0.) ~loss ~jitter ~seed () =
  make name (fun i j ->
      let r = link_rng ~seed i j in
      (* Uniform in [0, 2 * base): mean equals the base rate, so sweeps
         against the uniform profile compare equal average severity.
         Zero bases draw nothing and stay exactly zero. *)
      let draw base = if base > 0. then Rng.float r (2. *. base) else 0. in
      let loss = Float.min 0.95 (draw loss) in
      let jitter = Float.min 0.9 (draw jitter) in
      let down = outage > 0. && Rng.float r 1. < outage in
      { clean with loss; jitter; outage = (if down then 1. else 0.) })

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let bad_loss l = Float.is_nan l.loss || l.loss < 0. || l.loss > 1.
let bad_jitter l = Float.is_nan l.jitter || l.jitter < 0. || l.jitter >= 1.
let bad_outage l = Float.is_nan l.outage || l.outage < 0. || l.outage > 1.
let bad_extra_delay l = Float.is_nan l.extra_delay || l.extra_delay < 0.

let validate_link ctx ~id l =
  let bad field what v =
    invalid_arg (Printf.sprintf "%s: link %s: %s %s (got %g)" ctx id field what v)
  in
  if bad_loss l then bad "loss" "must be in [0, 1]" l.loss;
  if bad_jitter l then bad "jitter" "must be in [0, 1)" l.jitter;
  if bad_outage l then bad "outage" "must be in [0, 1]" l.outage;
  if bad_extra_delay l then bad "extra_delay" "must be >= 0 ms" l.extra_delay

(* A function profile is checked over all n(n-1) links, so the link id
   is formatted only for a link that fails. *)
let validate ctx ~n t =
  match t.kind with
  | Uniform l -> validate_link ctx ~id:(t.name ^ " (all links)") l
  | Fn f ->
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let l = f i j in
          if bad_loss l || bad_jitter l || bad_outage l || bad_extra_delay l then
            validate_link ctx ~id:(Printf.sprintf "%d->%d" i j) l
        end
      done
    done
