module Rng = Tivaware_util.Rng

type spec = { node : int; zone : int; weight : float }
type device = { id : int; node : int; zone : int; weight : float }

type t = {
  part_power : int;
  parts : int;
  replicas : int;
  seed : int;
  mutable devs : device option array;  (* indexed by id; None = removed *)
  mutable live : int;
  table : int array;  (* parts * replicas, flattened *)
  mutable last_moves : int;
}

(* SplitMix64's finalizer ([Rng.mix64]) as a stateless hash: the
   per-slot tie-break and the object hash are pure functions of (seed,
   inputs), never of iteration history. *)
let hash2 a b =
  Int64.to_int
    (Rng.mix64
       (Int64.add (Int64.mul (Int64.of_int a) 0x9e3779b97f4a7c15L) (Int64.of_int b)))
  land max_int

let part_power t = t.part_power
let parts t = t.parts
let replicas t = t.replicas
let seed t = t.seed
let size t = t.live

let devices t =
  Array.of_list
    (List.filter_map Fun.id (Array.to_list t.devs))

let device t id =
  if id < 0 || id >= Array.length t.devs then None else t.devs.(id)

let assignment t part =
  if part < 0 || part >= t.parts then
    invalid_arg (Printf.sprintf "Store.Ring.assignment: partition %d out of range" part);
  Array.init t.replicas (fun r -> t.table.((part * t.replicas) + r))

let partition_of t obj =
  hash2 (hash2 t.seed 0x9106) obj land (t.parts - 1)

let assigned t id =
  let k = ref 0 in
  Array.iter (fun d -> if d = id then incr k) t.table;
  !k

let live_ids t =
  let out = ref [] in
  for id = Array.length t.devs - 1 downto 0 do
    if t.devs.(id) <> None then out := id :: !out
  done;
  !out

let weight_of t id =
  match t.devs.(id) with Some d -> d.weight | None -> 0.

let zone_of t id =
  match t.devs.(id) with Some d -> d.zone | None -> -1

(* Weight-proportional desired slot counts with per-device cap [parts]
   (one replica of a partition per device): waterfill, redistributing
   any capped device's excess over the uncapped remainder. *)
let desired_shares t =
  let des = Array.make (Array.length t.devs) 0. in
  let cap = float_of_int t.parts in
  let rec fill remaining ids =
    let sum_w = List.fold_left (fun a id -> a +. weight_of t id) 0. ids in
    if sum_w <= 0. || ids = [] then ()
    else begin
      let over, under =
        List.partition (fun id -> remaining *. weight_of t id /. sum_w > cap) ids
      in
      if over = [] then
        List.iter (fun id -> des.(id) <- remaining *. weight_of t id /. sum_w) ids
      else begin
        List.iter (fun id -> des.(id) <- cap) over;
        fill (remaining -. (cap *. float_of_int (List.length over))) under
      end
    end
  in
  fill (float_of_int (t.parts * t.replicas)) (live_ids t);
  des

let desired_share t id =
  if device t id = None then
    invalid_arg (Printf.sprintf "Store.Ring.desired_share: device %d is not live" id);
  (desired_shares t).(id)

let in_part t part id =
  let base = part * t.replicas in
  let rec go r = r < t.replicas && (t.table.(base + r) = id || go (r + 1)) in
  go 0

let zones_in_part t part upto =
  let base = part * t.replicas in
  let zs = ref [] in
  for r = 0 to upto - 1 do
    let z = zone_of t t.table.(base + r) in
    if not (List.mem z !zs) then zs := z :: !zs
  done;
  !zs

(* Pick the best device for one slot of [part]: among candidates not
   already in the partition, prefer zones the partition does not use
   yet, then the largest deficit (desired - assigned), with a seeded
   per-slot hash as the final tie-break. *)
let pick_device t ~des ~count ~part ~used_zones ~exclude =
  let tie id = hash2 (hash2 t.seed (part + 0x51ab)) id in
  let better (d1, t1) (d2, t2) = d1 > d2 || (d1 = d2 && t1 > t2) in
  let best_pref = ref None and best_any = ref None in
  List.iter
    (fun id ->
      if not (List.mem id exclude) && not (in_part t part id) then begin
        let key = (des.(id) -. float_of_int count.(id), tie id) in
        let consider slot =
          match !slot with
          | Some (_, k) when better k key |> not -> slot := Some (id, key)
          | None -> slot := Some (id, key)
          | Some _ -> ()
        in
        consider best_any;
        if not (List.mem (zone_of t id) used_zones) then consider best_pref
      end)
    (live_ids t);
  match (!best_pref, !best_any) with
  | Some (id, _), _ -> Some id
  | None, Some (id, _) -> Some id
  | None, None -> None

let build t =
  let des = desired_shares t in
  let count = Array.make (Array.length t.devs) 0 in
  for part = 0 to t.parts - 1 do
    for r = 0 to t.replicas - 1 do
      let used_zones = zones_in_part t part r in
      match pick_device t ~des ~count ~part ~used_zones ~exclude:[] with
      | Some id ->
          t.table.((part * t.replicas) + r) <- id;
          count.(id) <- count.(id) + 1
      | None -> invalid_arg "Store.Ring: not enough devices to fill a partition"
    done
  done

let validate_spec ~ctx i (s : spec) =
  if not (Float.is_finite s.weight) || s.weight <= 0. then
    invalid_arg
      (Printf.sprintf "%s: weight must be positive and finite (got %g for device %d)"
         ctx s.weight i);
  if s.node < 0 then
    invalid_arg (Printf.sprintf "%s: node must be >= 0 (got %d for device %d)" ctx s.node i);
  if s.zone < 0 then
    invalid_arg (Printf.sprintf "%s: zone must be >= 0 (got %d for device %d)" ctx s.zone i)

let create ?(seed = 1) ~part_power ~replicas specs =
  let ctx = "Store.Ring.create" in
  if part_power < 0 || part_power > 20 then
    invalid_arg (Printf.sprintf "%s: part_power must be in [0, 20] (got %d)" ctx part_power);
  if replicas < 1 then
    invalid_arg (Printf.sprintf "%s: replicas must be >= 1 (got %d)" ctx replicas);
  let n = Array.length specs in
  if n = 0 then invalid_arg (Printf.sprintf "%s: devices must be non-empty" ctx);
  if replicas > n then
    invalid_arg (Printf.sprintf "%s: replicas (%d) exceeds devices (%d)" ctx replicas n);
  Array.iteri (validate_spec ~ctx) specs;
  let parts = 1 lsl part_power in
  let t =
    {
      part_power;
      parts;
      replicas;
      seed;
      devs =
        Array.mapi
          (fun id (s : spec) -> Some { id; node = s.node; zone = s.zone; weight = s.weight })
          specs;
      live = n;
      table = Array.make (parts * replicas) (-1);
      last_moves = 0;
    }
  in
  build t;
  t

let last_moves t = t.last_moves

let counts t =
  let count = Array.make (Array.length t.devs) 0 in
  Array.iter (fun id -> count.(id) <- count.(id) + 1) t.table;
  count

let add_device t s =
  validate_spec ~ctx:"Store.Ring.add_device" (Array.length t.devs) s;
  let id = Array.length t.devs in
  let dev = Some { id; node = s.node; zone = s.zone; weight = s.weight } in
  t.devs <- Array.append t.devs [| dev |];
  t.live <- t.live + 1;
  let des = desired_shares t in
  let count = counts t in
  let moves = ref 0 in
  (* Pull slots from the most-overfull donor while the newcomer is
     more than half a slot under its share; only donor -> newcomer
     moves, so untouched partitions keep their assignment verbatim. *)
  let continue = ref true in
  while !continue && des.(id) -. float_of_int count.(id) > 0.5 do
    let donor = ref None in
    List.iter
      (fun d ->
        if d <> id then
          let surplus = float_of_int count.(d) -. des.(d) in
          match !donor with
          | Some (_, s) when s >= surplus -> ()
          | _ -> donor := Some (d, surplus))
      (live_ids t);
    match !donor with
    | None -> continue := false
    | Some (_, surplus) when surplus <= 0. -> continue := false
    | Some (d, _) ->
        (* Best slot of the donor: a partition without the newcomer,
           preferring one where the newcomer's zone is absent. *)
        let best = ref None in
        Array.iteri
          (fun slot holder ->
            if holder = d then begin
              let part = slot / t.replicas in
              if not (in_part t part id) then begin
                let zones = zones_in_part t part t.replicas in
                let zone_free = not (List.mem s.zone (List.filter (( <> ) (zone_of t d)) zones)) in
                let key = ((if zone_free then 1 else 0), hash2 (hash2 t.seed (part + 0x77ad)) id) in
                match !best with
                | Some (_, k) when k >= key -> ()
                | _ -> best := Some (slot, key)
              end
            end)
          t.table;
        (match !best with
        | None -> continue := false
        | Some (slot, _) ->
            t.table.(slot) <- id;
            count.(d) <- count.(d) - 1;
            count.(id) <- count.(id) + 1;
            incr moves)
  done;
  t.last_moves <- !moves;
  id

let remove_device t id =
  (match device t id with
  | None -> invalid_arg (Printf.sprintf "Store.Ring.remove_device: device %d is not live" id)
  | Some _ -> ());
  if t.live - 1 < t.replicas then
    invalid_arg
      (Printf.sprintf
         "Store.Ring.remove_device: removing device %d leaves fewer devices (%d) than replicas (%d)"
         id (t.live - 1) t.replicas);
  t.devs.(id) <- None;
  t.live <- t.live - 1;
  let des = desired_shares t in
  let count = counts t in
  count.(id) <- 0;
  let moves = ref 0 in
  Array.iteri
    (fun slot holder ->
      if holder = id then begin
        let part = slot / t.replicas in
        let used_zones =
          List.filter_map
            (fun r ->
              let h = t.table.((part * t.replicas) + r) in
              if h = id then None else Some (zone_of t h))
            (List.init t.replicas Fun.id)
        in
        match pick_device t ~des ~count ~part ~used_zones ~exclude:[ id ] with
        | Some repl ->
            t.table.(slot) <- repl;
            count.(repl) <- count.(repl) + 1;
            incr moves
        | None -> invalid_arg "Store.Ring.remove_device: no eligible replacement"
      end)
    t.table;
  t.last_moves <- !moves

let handoff t part =
  if part < 0 || part >= t.parts then
    invalid_arg (Printf.sprintf "Store.Ring.handoff: partition %d out of range" part);
  let primaries = assignment t part in
  let is_primary id = Array.exists (( = ) id) primaries in
  let others = List.filter (fun id -> not (is_primary id)) (live_ids t) in
  let order id = hash2 (hash2 t.seed (part + 0x4841)) id in
  let used_zones = Array.to_list (Array.map (zone_of t) primaries) in
  (* Phase 1: one device per zone the partition does not cover yet,
     zones in hashed order, each represented by its hashed-first
     device; phase 2: everything else in hashed order. *)
  let missing_zones =
    List.sort_uniq compare
      (List.filter (fun z -> not (List.mem z used_zones)) (List.map (zone_of t) others))
  in
  let first_of_zone z =
    List.fold_left
      (fun acc id ->
        if zone_of t id <> z then acc
        else match acc with Some b when order b <= order id -> acc | _ -> Some id)
      None others
  in
  let phase1 =
    List.filter_map first_of_zone
      (List.sort (fun a b -> compare (hash2 (hash2 t.seed (part + 0x2e)) a) (hash2 (hash2 t.seed (part + 0x2e)) b)) missing_zones)
  in
  let phase2 =
    List.sort
      (fun a b -> compare (order a) (order b))
      (List.filter (fun id -> not (List.mem id phase1)) others)
  in
  Array.of_list (phase1 @ phase2)
