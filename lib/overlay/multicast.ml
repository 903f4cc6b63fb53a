module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Delay_backend = Tivaware_backend.Delay_backend

type config = {
  max_degree : int;
  refresh_sample : int;
}

let default_config = { max_degree = 6; refresh_sample = 16 }

type t = {
  config : config;
  root : int;
  parent : int array;  (* -1 = root or not joined *)
  joined : bool array;
  degree : int array;  (* children count *)
  wants : bool array;
  (* group membership intent: everyone from the join order; a detached
     node with [wants] set rejoins when repair finds it up again *)
  kids : int array array;
  (* child index: [kids.(p)] holds, ascending in its first [nkids.(p)]
     slots, every node whose [parent] is [p]; kept by [set_parent] *)
  nkids : int array;
}

let root t = t.root

let parent t node =
  if t.joined.(node) && node <> t.root then Some t.parent.(node) else None

let members t =
  let out = ref [] in
  Array.iteri (fun node j -> if j then out := node :: !out) t.joined;
  List.rev !out

let children_count t node = t.degree.(node)

let children t node =
  let slots = t.kids.(node) in
  let out = ref [] in
  for i = t.nkids.(node) - 1 downto 0 do
    let c = slots.(i) in
    if t.joined.(c) && c <> t.root then out := c :: !out
  done;
  !out

(* The one writer of [t.parent]: moves [c] from its old parent's slots
   to [p]'s ([-1] = none), keeping both slot prefixes ascending. *)
let set_parent t c p =
  let old = t.parent.(c) in
  if old <> p then begin
    if old >= 0 then begin
      let slots = t.kids.(old) and len = t.nkids.(old) in
      let i = ref 0 in
      while slots.(!i) <> c do incr i done;
      Array.blit slots (!i + 1) slots !i (len - !i - 1);
      t.nkids.(old) <- len - 1
    end;
    t.parent.(c) <- p;
    if p >= 0 then begin
      let len = t.nkids.(p) in
      if len = Array.length t.kids.(p) then begin
        let grown = Array.make (max 4 (2 * len)) (-1) in
        Array.blit t.kids.(p) 0 grown 0 len;
        t.kids.(p) <- grown
      end;
      let slots = t.kids.(p) in
      let i = ref len in
      while !i > 0 && slots.(!i - 1) > c do
        slots.(!i) <- slots.(!i - 1);
        decr i
      done;
      slots.(!i) <- c;
      t.nkids.(p) <- len + 1
    end
  end

(* [known]: whether the pair can carry a tree edge at all — the
   backend's query is not nan, which for a matrix-wrapping backend is
   exactly [Matrix.known]. *)
let known_of_backend b node cand =
  node <> cand && not (Float.is_nan (Delay_backend.query b node cand))

(* Predicted-nearest joined member with spare degree among candidates. *)
let best_attachment t ~known ~predict node candidates =
  List.fold_left
    (fun acc cand ->
      if
        cand <> node && t.joined.(cand)
        && t.degree.(cand) < t.config.max_degree
        && known node cand
      then begin
        let p = predict node cand in
        if Float.is_nan p then acc
        else begin
          match acc with
          | Some (_, bp) when bp <= p -> acc
          | _ -> Some (cand, p)
        end
      end
      else acc)
    None candidates

let build_general ?(config = default_config) ~n ~known ~join_order ~predict () =
  assert (Array.length join_order > 0);
  let t =
    {
      config;
      root = join_order.(0);
      parent = Array.make n (-1);
      joined = Array.make n false;
      degree = Array.make n 0;
      wants = Array.make n false;
      kids = Array.make n [||];
      nkids = Array.make n 0;
    }
  in
  Array.iter (fun node -> t.wants.(node) <- true) join_order;
  t.joined.(t.root) <- true;
  let member_list = ref [ t.root ] in
  Array.iteri
    (fun idx node ->
      if idx > 0 then begin
        match best_attachment t ~known ~predict node !member_list with
        | Some (chosen, _) ->
          set_parent t node chosen;
          t.joined.(node) <- true;
          t.degree.(chosen) <- t.degree.(chosen) + 1;
          member_list := node :: !member_list
        | None -> ()
      end)
    join_order;
  t

let build_backend ?config ?predict backend ~join_order =
  let predict =
    match predict with Some p -> p | None -> Delay_backend.query backend
  in
  build_general ?config ~n:(Delay_backend.size backend)
    ~known:(known_of_backend backend) ~join_order ~predict ()

(* Is [candidate] in the subtree rooted at [node]?  Switching to a
   descendant would create a cycle.  A top-level ascent, so a call
   builds no closure. *)
let rec ascends_to t node cur steps =
  if steps < 0 then false (* defensive: corrupted tree *)
  else if cur = node then true
  else if cur = t.root || cur < 0 then false
  else ascends_to t node t.parent.(cur) (steps - 1)

let in_subtree t node candidate =
  ascends_to t node candidate (Array.length t.parent)

(* Predicted delay from every member to the root along the current tree
   edges: the quantity a member advertises to prospective children. *)
let predicted_root_delays t ~predict =
  let n = Array.length t.parent in
  let out = Array.make n nan in
  out.(t.root) <- 0.;
  let rec resolve node =
    if not (Float.is_nan out.(node)) then out.(node)
    else begin
      let p = t.parent.(node) in
      let d = resolve p +. predict node p in
      out.(node) <- d;
      d
    end
  in
  List.iter (fun node -> ignore (resolve node)) (members t);
  out

let refresh_general t rng ~known ~predict =
  let all_members = Array.of_list (members t) in
  let order = Array.copy all_members in
  Rng.shuffle rng order;
  let switches = ref 0 in
  (* Root delays are recomputed once per pass; switches within the pass
     use slightly stale values, as a real periodically-advertised
     protocol would. *)
  let root_delay = predicted_root_delays t ~predict in
  let sample = Array.make t.config.refresh_sample 0 in
  Array.iter
    (fun node ->
      if node <> t.root && t.joined.(node) then begin
        let current = t.parent.(node) in
        let current_cost = root_delay.(current) +. predict node current in
        (* Sample refresh candidates from the membership; optimize the
           predicted end-to-end delay from the root, not just the parent
           edge, so refreshes cannot degenerate into long chains.  The
           whole sample is drawn before any candidate is probed. *)
        for s = 0 to Array.length sample - 1 do
          sample.(s) <- Rng.choice rng all_members
        done;
        (* Candidates in sample order; the first of equal costs wins.
           Descendants are skipped (switching to one would close a
           cycle); the tree is not changed until the scan ends. *)
        let best = ref (-1) and best_cost = ref infinity in
        for s = 0 to Array.length sample - 1 do
          let cand = sample.(s) in
          if
            cand <> node && cand <> current && t.joined.(cand)
            && t.degree.(cand) < t.config.max_degree
            && (not (in_subtree t node cand))
            && known node cand
          then begin
            let p = predict node cand in
            if not (Float.is_nan p || Float.is_nan root_delay.(cand)) then begin
              let cost = root_delay.(cand) +. p in
              if !best < 0 || not (!best_cost <= cost) then begin
                best := cand;
                best_cost := cost
              end
            end
          end
        done;
        let better = !best in
        if better >= 0 && (Float.is_nan current_cost || !best_cost < current_cost)
        then begin
          t.degree.(current) <- t.degree.(current) - 1;
          set_parent t node better;
          t.degree.(better) <- t.degree.(better) + 1;
          incr switches
        end
      end)
    order;
  !switches

let refresh_backend ?predict t rng backend =
  let predict =
    match predict with Some p -> p | None -> Delay_backend.query backend
  in
  refresh_general t rng ~known:(known_of_backend backend) ~predict

type metrics = {
  members : int;
  mean_edge_ms : float;
  median_stretch : float;
  p90_stretch : float;
  max_depth : int;
  max_fanout : int;
}

let evaluate_fn ?(on_missing = fun () -> ()) t delay =
  let n = Array.length t.parent in
  (* Root-to-node tree delay and depth by memoized ascent. *)
  let tree_delay = Array.make n nan in
  let depth = Array.make n (-1) in
  tree_delay.(t.root) <- 0.;
  depth.(t.root) <- 0;
  let rec resolve node =
    if depth.(node) >= 0 then (tree_delay.(node), depth.(node))
    else begin
      let p = t.parent.(node) in
      let pd, pdepth = resolve p in
      let edge = delay node p in
      (* A missing edge contributes zero to the path — a silent nan
         exit; [on_missing] lets engine-backed callers count it. *)
      if Float.is_nan edge then on_missing ();
      let d = pd +. (if Float.is_nan edge then 0. else edge) in
      tree_delay.(node) <- d;
      depth.(node) <- pdepth + 1;
      (d, pdepth + 1)
    end
  in
  let edges = ref [] and stretches = ref [] and max_depth = ref 0 in
  List.iter
    (fun node ->
      if node <> t.root then begin
        let _, d = resolve node in
        if d > !max_depth then max_depth := d;
        let edge = delay node t.parent.(node) in
        if not (Float.is_nan edge) then edges := edge :: !edges;
        let direct = delay node t.root in
        if (not (Float.is_nan direct)) && direct > 0. then
          stretches := (tree_delay.(node) /. direct) :: !stretches
        else
          (* No measurable direct root delay: the member drops out of
             the stretch percentiles without a trace. *)
          on_missing ()
      end)
    (members t);
  let edges = Array.of_list !edges and stretches = Array.of_list !stretches in
  {
    members = List.length (members t);
    mean_edge_ms = Stats.mean edges;
    median_stretch = (if Array.length stretches = 0 then 0. else Stats.median stretches);
    p90_stretch =
      (if Array.length stretches = 0 then 0. else Stats.percentile stretches 90.);
    max_depth = !max_depth;
    max_fanout = Array.fold_left max 0 t.degree;
  }

let evaluate_backend t backend = evaluate_fn t (Delay_backend.query backend)

(* Evaluation against the engine's ground truth, with the nan audit:
   every silent fallback (missing tree edge, unmeasurable direct root
   delay) increments [multicast.evaluate_failures] instead of
   disappearing into the percentiles — the multicast counterpart of
   [meridian.query_failures]. *)
let evaluate_failures_counter reg =
  Tivaware_obs.Registry.counter reg "multicast.evaluate_failures"

let evaluate_engine t engine =
  let module Engine = Tivaware_measure.Engine in
  let module Oracle = Tivaware_measure.Oracle in
  let module Obs = Tivaware_obs in
  let reg = Engine.obs engine in
  let failures = evaluate_failures_counter reg in
  let missing = ref 0 in
  let on_missing () =
    incr missing;
    Obs.Counter.incr failures
  in
  let m =
    evaluate_fn ~on_missing t (Oracle.query (Engine.oracle engine))
  in
  if !missing > 0 then
    Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"multicast"
      (Printf.sprintf "evaluate dropped %d unmeasurable edges" !missing);
  m

(* ------------------------------------------------------------------ *)
(* Churn-aware tree repair                                             *)

type repair = {
  detached : int;
  reattached : int;
  rejoined : int;
}

let recompute_degrees t =
  Array.fill t.degree 0 (Array.length t.degree) 0;
  Array.iteri
    (fun node p ->
      if t.joined.(node) && node <> t.root && p >= 0 then
        t.degree.(p) <- t.degree.(p) + 1)
    t.parent

let repair_general t rng ~known ~predict ~up =
  let detached = ref 0 and reattached = ref 0 and rejoined = ref 0 in
  (* 1. Down members leave the tree; their children become orphans
     (still joined, parent no longer a member). *)
  List.iter
    (fun node ->
      if node <> t.root && not (up node) then begin
        t.joined.(node) <- false;
        set_parent t node (-1);
        incr detached
      end)
    (members t);
  (* Detached members no longer occupy their parents' degree slots —
     without this, a root whose children all died in one burst keeps a
     phantom full degree and cannot adopt the orphans, breaking the
     "root is always a candidate" guarantee below. *)
  recompute_degrees t;
  (* 2. Orphans re-attach: a member whose parent is gone (or down) asks
     the predictor — real probes, when driven by an engine — for the
     best live member with spare degree.  Deterministic ascending order
     keeps repair reproducible under a fixed seed. *)
  let live_members () =
    List.filter (fun c -> up c) (members t)
  in
  let orphaned node =
    node <> t.root && t.joined.(node)
    &&
    let p = t.parent.(node) in
    p < 0 || (not t.joined.(p)) || not (up p)
  in
  (* Re-attaches an orphan, or detaches it and returns [false]. *)
  let regraft node =
    let pool = Array.of_list (live_members ()) in
    let sample =
      if Array.length pool = 0 then []
      else List.init t.config.refresh_sample (fun _ -> Rng.choice rng pool)
    in
    let eligible =
      List.filter (fun c -> not (in_subtree t node c)) (t.root :: sample)
    in
    match best_attachment t ~known ~predict node eligible with
    | Some (chosen, _) when up chosen ->
      set_parent t node chosen;
      t.degree.(chosen) <- t.degree.(chosen) + 1;
      incr reattached;
      true
    | _ ->
      (* No live attachment point this pass: the node leaves the
         tree and rejoins later like any revived member. *)
      t.joined.(node) <- false;
      set_parent t node (-1);
      false
  in
  (* A detached orphan can strand a member visited before it — one that
     kept it as parent or re-attached to it — so every sweep with a
     detach is followed by another.  A sweep without one re-attached
     every orphan to a member that stays joined, so this ends. *)
  let rec sweep () =
    let detached_any = ref false in
    List.iter
      (fun node ->
        if orphaned node && not (regraft node) then detached_any := true)
      (members t);
    if !detached_any then sweep ()
  in
  sweep ();
  recompute_degrees t;
  (* 3. Revived members rejoin the group they still want. *)
  Array.iteri
    (fun node wants ->
      if wants && (not t.joined.(node)) && up node && node <> t.root then begin
        let pool = Array.of_list (live_members ()) in
        let sample =
          if Array.length pool = 0 then []
          else List.init t.config.refresh_sample (fun _ -> Rng.choice rng pool)
        in
        match best_attachment t ~known ~predict node (t.root :: sample) with
        | Some (chosen, _) when up chosen ->
          set_parent t node chosen;
          t.joined.(node) <- true;
          t.degree.(chosen) <- t.degree.(chosen) + 1;
          incr rejoined
        | _ -> ()
      end)
    t.wants;
  { detached = !detached; reattached = !reattached; rejoined = !rejoined }

let repair t rng backend ~predict ~up =
  repair_general t rng ~known:(known_of_backend backend) ~predict ~up

(* Edge existence against the engine's ground truth, whatever backs
   it: a matrix pair is known iff its oracle query is non-nan, so this
   matches [Matrix.known] exactly on matrix engines and extends to
   lazy backend engines. *)
let known_of_engine engine i j =
  let module Engine = Tivaware_measure.Engine in
  let module Oracle = Tivaware_measure.Oracle in
  i <> j && not (Float.is_nan (Oracle.query (Engine.oracle engine) i j))

let repair_engine ?(label = "multicast-repair") ?predict t rng engine =
  let module Engine = Tivaware_measure.Engine in
  let module Churn = Tivaware_measure.Churn in
  let module Obs = Tivaware_obs in
  let up i =
    match Engine.churn engine with
    | None -> true
    | Some c -> Churn.is_up c i
  in
  let predict =
    match predict with Some p -> p | None -> Engine.rtt ~label engine
  in
  let result =
    repair_general t rng ~known:(known_of_engine engine) ~predict ~up
  in
  let reg = Engine.obs engine in
  let labels = [ ("plane", "multicast") ] in
  List.iter
    (fun (name, v) ->
      Obs.Counter.add (Obs.Registry.counter reg ~labels name) (float_of_int v))
    [
      ("repair.detached", result.detached);
      ("repair.reattached", result.reattached);
      ("repair.rejoined", result.rejoined);
    ];
  Obs.Registry.trace_event reg ~time:(Engine.now engine)
    ~label:"repair.multicast"
    (Printf.sprintf "detached=%d reattached=%d rejoined=%d" result.detached
       result.reattached result.rejoined);
  result

(* Measurement-plane neighbor selection: joins and refreshes predict
   edge delays by probing through the engine; edge existence consults
   the engine's ground truth directly (matrix or lazy backend alike).
   Oracle-mode default reproduces [build_backend] over the engine's
   ground truth bit-for-bit. *)
let build_engine ?config ?(label = "multicast") ?predict engine ~join_order =
  let module Engine = Tivaware_measure.Engine in
  let predict =
    match predict with Some p -> p | None -> Engine.rtt ~label engine
  in
  build_general ?config ~n:(Engine.size engine)
    ~known:(known_of_engine engine) ~join_order ~predict ()

let refresh_engine ?(label = "multicast") ?predict t rng engine =
  let module Engine = Tivaware_measure.Engine in
  let predict =
    match predict with Some p -> p | None -> Engine.rtt ~label engine
  in
  refresh_general t rng ~known:(known_of_engine engine) ~predict
