module Rng = Tivaware_util.Rng
module Pqueue = Tivaware_util.Pqueue

type config = {
  fraction : float;
  mean_up : float;
  mean_down : float;
  seed : int;
}

let default = { fraction = 0.2; mean_up = 60.; mean_down = 10.; seed = 0 }

let validate_config ctx c =
  if Float.is_nan c.fraction || c.fraction < 0. || c.fraction > 1. then
    invalid_arg
      (Printf.sprintf "%s: churn fraction must be in [0, 1] (got %g)" ctx
         c.fraction);
  if Float.is_nan c.mean_up || c.mean_up <= 0. then
    invalid_arg
      (Printf.sprintf "%s: churn mean_up must be > 0 s (got %g)" ctx c.mean_up);
  if Float.is_nan c.mean_down || c.mean_down <= 0. then
    invalid_arg
      (Printf.sprintf "%s: churn mean_down must be > 0 s (got %g)" ctx
         c.mean_down)

(* A churning node's whole lifetime schedule flows from its own
   generator, so state at time T is a pure function of (seed, node, T)
   no matter how the clock was advanced to T — or in which order the
   nodes due by T are toggled. *)
type node_state = {
  id : int;
  rng : Rng.t;
  mutable up : bool;
  mutable next : float;  (* absolute time of the next toggle *)
}

type t = {
  config : config;
  nodes : node_state option array;
  (* Every churning node, keyed by [next]: an advance pops only the
     nodes due by the new time, so a tick with no toggle costs one
     comparison instead of a walk over all n nodes. *)
  due : node_state Pqueue.t;
  mutable time : float;
  mutable transitions : int;
  (* Set when [advance_to] toggled nodes without mirroring them into a
     fault injector; the next {!drive} then rewrites every churning
     node instead of only the ones it toggles itself. *)
  mutable unmirrored : bool;
}

let create ?(config = default) ~n () =
  validate_config "Churn.create" config;
  let node_of i =
    let rng = Rng.create ((config.seed * 2_000_029) + i) in
    if Rng.float rng 1. < config.fraction then
      (* Every node starts up; the first failure arrives after one
         exponential up-lifetime. *)
      Some
        {
          id = i;
          rng;
          up = true;
          next = Rng.exponential rng ~rate:(1. /. config.mean_up);
        }
    else None
  in
  let nodes = Array.init n node_of in
  let due = Pqueue.create () in
  Array.iter (function None -> () | Some st -> Pqueue.push due st.next st) nodes;
  { config; nodes; due; time = 0.; transitions = 0; unmirrored = false }

let config t = t.config

let churning t i =
  i >= 0 && i < Array.length t.nodes && t.nodes.(i) <> None

(* Toggle the node with the earliest pending toggle and re-queue it at
   its next one.  Callers check [Pqueue.min_prio t.due <= time] first,
   so the queue is never empty here. *)
let toggle_head t =
  match Pqueue.pop t.due with
  | None -> invalid_arg "Churn.toggle_head: no churning node"
  | Some (_, st) ->
    st.up <- not st.up;
    t.transitions <- t.transitions + 1;
    let mean = if st.up then t.config.mean_up else t.config.mean_down in
    st.next <- st.next +. Rng.exponential st.rng ~rate:(1. /. mean);
    Pqueue.push t.due st.next st;
    st

let advance_to t time =
  if time > t.time then begin
    while Pqueue.min_prio t.due <= time do
      ignore (toggle_head t : node_state);
      t.unmirrored <- true
    done;
    t.time <- time
  end

let now t = t.time

let transitions t = t.transitions

let is_up t i =
  match if i >= 0 && i < Array.length t.nodes then t.nodes.(i) else None with
  | None -> true
  | Some st -> st.up

(* The fault injector's node-outage set is the ground truth probes are
   checked against; churn keeps it in sync with the schedule. *)
let sync t fault =
  Array.iter
    (function None -> () | Some st -> Fault.set_down fault st.id (not st.up))
    t.nodes;
  t.unmirrored <- false

let drive t fault ~time =
  if time > t.time then begin
    while Pqueue.min_prio t.due <= time do
      let st = toggle_head t in
      Fault.set_down fault st.id (not st.up)
    done;
    t.time <- time
  end;
  if t.unmirrored then sync t fault
