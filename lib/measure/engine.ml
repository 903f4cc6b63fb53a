module Rng = Tivaware_util.Rng
module Obs = Tivaware_obs

type config = {
  fault : Fault.config;
  profile : Profile.t option;
  churn : Churn.config option;
  dynamics : Dynamics.config option;
  budget : Budget.config option;
  cache_ttl : float option;
  cache_capacity : int option;
  charge_time : bool;
  seed : int;
}

let default_config =
  {
    fault = Fault.default;
    profile = None;
    churn = None;
    dynamics = None;
    budget = None;
    cache_ttl = None;
    cache_capacity = None;
    charge_time = false;
    seed = 0;
  }

(* Probe costs are in the oracle's RTT unit (ms); the engine clock is
   in logical seconds. *)
let ms_per_second = 1000.

(* Observability instruments, resolved once at engine creation so the
   probe hot path pays plain field accesses, not registry lookups.
   Per-plane series ([{plane=...}] labels) are resolved lazily into a
   table, and the last plane's pair is memoized by physical equality
   of the label, as [Probe_stats.record_issue] does for its cells. *)
type instruments = {
  i_requests : Obs.Counter.t;
  i_sent : Obs.Counter.t;
  i_lost : Obs.Counter.t;
  i_retried : Obs.Counter.t;
  i_failed : Obs.Counter.t;
  i_denied : Obs.Counter.t;
  i_down : Obs.Counter.t;
  i_unmeasured : Obs.Counter.t;
  i_hits : Obs.Counter.t;
  i_stale : Obs.Counter.t;
  i_misses : Obs.Counter.t;
  i_evicted : Obs.Counter.t;
  i_probe_ms : Obs.Counter.t;
  i_rtt_ms : Obs.Histogram.t;
  i_cost_ms : Obs.Histogram.t;
  i_per_plane : (string, Obs.Counter.t * Obs.Counter.t) Hashtbl.t;
      (* plane -> (probes sent, probe_ms) *)
  mutable i_last_plane : string;
  mutable i_last_sent : Obs.Counter.t;
  mutable i_last_ms : Obs.Counter.t;
}

type t = {
  config : config;
  oracle : Oracle.t;
  fault : Fault.t;
  churn : Churn.t option;
  dynamics : Dynamics.t option;
  budget : Budget.t option;
  cache : Cache.t option;
  stats : Probe_stats.t;
  (* Whether wire outcomes feed the fault injector's loss estimators.
     Only the [Adaptive] retry policy reads them; under [Fixed] and
     [Backoff] the per-link table would grow with every probed link
     (4M slots for a 100k-node embedding) and nothing would consult
     it. *)
  record_loss : bool;
  obs : Obs.Registry.t;
  inst : instruments;
  (* Hot-path scratch: slot 0 the last probe's value, slot 1 its
     accumulated cost.  A float array, not mutable record fields,
     because float-array stores are unboxed without flambda; probes
     never nest, so one scratch per engine is safe. *)
  scratch : float array;
  mutable clock : float;
}

let rtt_edges = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]
let cost_edges = [| 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000.; 10000. |]

(* Register the whole metric schema up front — including the repair and
   alert families other planes fill in later — so every run summary
   carries the same series and a zero really means "nothing happened",
   not "never wired". *)
let make_instruments obs =
  let counter ?labels name = Obs.Registry.counter obs ?labels name in
  let gauge ?labels name = ignore (Obs.Registry.gauge obs ?labels name) in
  List.iter
    (fun (name, plane) -> ignore (counter ~labels:[ ("plane", plane) ] name))
    [
      ("repair.evicted", "vivaldi");
      ("repair.resampled", "vivaldi");
      ("repair.checked", "chord");
      ("repair.rerouted", "chord");
      ("repair.marked_dead", "chord");
      ("repair.revived", "chord");
      ("repair.evicted", "meridian");
      ("repair.reentered", "meridian");
      ("repair.detached", "multicast");
      ("repair.reattached", "multicast");
      ("repair.rejoined", "multicast");
    ];
  ignore (Obs.Registry.gauge obs ~labels:[ ("plane", "meridian") ] "repair.pending");
  gauge "alert.precision";
  gauge "alert.recall";
  gauge "alert.f1";
  ignore (counter "meridian.query_failures");
  {
    i_requests = counter "measure.requests";
    i_sent = counter "measure.probes.sent";
    i_lost = counter "measure.probes.lost";
    i_retried = counter "measure.probes.retried";
    i_failed = counter "measure.probes.failed";
    i_denied = counter "measure.probes.denied";
    i_down = counter "measure.probes.down";
    i_unmeasured = counter "measure.probes.unmeasured";
    i_hits = counter "measure.cache.hits";
    i_stale = counter "measure.cache.stale";
    i_misses = counter "measure.cache.misses";
    i_evicted = counter "measure.cache.evicted";
    i_probe_ms = counter "measure.probe_ms";
    i_rtt_ms = Obs.Registry.histogram obs ~edges:rtt_edges "measure.rtt_ms";
    i_cost_ms = Obs.Registry.histogram obs ~edges:cost_edges "measure.cost_ms";
    i_per_plane = Hashtbl.create 8;
    (* A fresh string no label can be physically equal to. *)
    i_last_plane = String.make 1 '\000';
    i_last_sent = Obs.Counter.create ();
    i_last_ms = Obs.Counter.create ();
  }

let plane_counters t plane =
  match Hashtbl.find t.inst.i_per_plane plane with
  | pair -> pair
  | exception Not_found ->
    let labels = [ ("plane", plane) ] in
    let pair =
      ( Obs.Registry.counter t.obs ~labels "measure.probes.sent",
        Obs.Registry.counter t.obs ~labels "measure.probe_ms" )
    in
    Hashtbl.replace t.inst.i_per_plane plane pair;
    pair

(* Point [i_last_sent]/[i_last_ms] at [plane]'s counters. *)
let select_plane t plane =
  let inst = t.inst in
  if plane != inst.i_last_plane then begin
    let sent, ms = plane_counters t plane in
    inst.i_last_plane <- plane;
    inst.i_last_sent <- sent;
    inst.i_last_ms <- ms
  end

let validate_config (config : config) =
  Fault.validate_config "Engine.create" config.fault;
  Option.iter (Churn.validate_config "Engine.create") config.churn;
  Option.iter (Dynamics.validate_config "Engine.create") config.dynamics;
  Option.iter (Budget.validate_config "Engine.create") config.budget;
  (match config.cache_ttl with
  | Some ttl when Float.is_nan ttl || ttl <= 0. ->
    invalid_arg
      (Printf.sprintf
         "Engine.create: cache_ttl must be positive (got %g; omit the cache \
          instead of disabling it with a non-positive TTL)"
         ttl)
  | _ -> ());
  match (config.cache_capacity, config.cache_ttl) with
  | Some c, _ when c < 1 ->
    invalid_arg
      (Printf.sprintf "Engine.create: cache_capacity must be >= 1 (got %d)" c)
  | Some _, None ->
    invalid_arg
      "Engine.create: cache_capacity requires cache_ttl (there is no cache to \
       bound)"
  | _ -> ()

let create ?(config = default_config) oracle =
  validate_config config;
  let n = Oracle.size oracle in
  (* Dynamics wrap the configured profile — or, like the injector's own
     back-compat path, a uniform profile built from the global fault
     rates, which reproduces the global model probe for probe. *)
  let dynamics =
    Option.map
      (fun d ->
        let base =
          match config.profile with
          | Some p -> p
          | None ->
            Profile.of_rates ~loss:config.fault.Fault.loss
              ~jitter:config.fault.Fault.jitter
        in
        Dynamics.create ~config:d base)
      config.dynamics
  in
  let fault =
    match dynamics with
    | Some d ->
      Fault.create ~config:config.fault ~profile:(Dynamics.profile d)
        (Rng.create config.seed) ~n
    | None ->
      Fault.create ~config:config.fault ?profile:config.profile
        (Rng.create config.seed) ~n
  in
  let churn = Option.map (fun c -> Churn.create ~config:c ~n ()) config.churn in
  (* Churn owns the up/down state of its churning nodes from time 0 on
     (everyone starts up); non-churning nodes keep whatever the
     config.outage draw decided. *)
  Option.iter (fun c -> Churn.sync c fault) churn;
  let obs = Obs.Registry.create () in
  {
    config;
    oracle;
    fault;
    churn;
    dynamics;
    budget = Option.map (fun b -> Budget.create b ~n) config.budget;
    cache =
      Option.map
        (fun ttl -> Cache.create ?capacity:config.cache_capacity ~ttl ())
        config.cache_ttl;
    stats = Probe_stats.create ();
    record_loss =
      (match config.fault.Fault.policy with
      | Fault.Adaptive _ -> true
      | Fault.Fixed | Fault.Backoff _ -> false);
    obs;
    inst = make_instruments obs;
    scratch = Array.make 2 nan;
    clock = 0.;
  }

let of_matrix ?config m = create ?config (Oracle.of_matrix m)

let config t = t.config
let oracle t = t.oracle
let size t = Oracle.size t.oracle
let matrix_exn t = Oracle.matrix_exn t.oracle
let fault t = t.fault
let churn t = t.churn
let dynamics t = t.dynamics
let obs t = t.obs

let now t = t.clock

(* Every clock movement drives both time-dependent planes: network
   conditions (dynamics) and membership (churn). *)
let sync_churn t =
  (match t.dynamics with
  | None -> ()
  | Some d -> Dynamics.advance_to d t.clock);
  match t.churn with
  | None -> ()
  | Some c -> Churn.drive c t.fault ~time:t.clock

(* [dt < 0.] alone is false for nan, which would then poison the clock:
   every later TTL, budget and churn comparison against nan is false. *)
let advance t dt =
  if not (Float.is_finite dt && dt >= 0.) then
    invalid_arg
      (Printf.sprintf "Engine.advance: step must be finite and >= 0 s (got %g)" dt);
  t.clock <- t.clock +. dt;
  sync_churn t

let advance_to t time =
  if time > t.clock then begin
    t.clock <- time;
    sync_churn t
  end

type outcome =
  | Rtt of float
  | Cached of float
  | Denied
  | Down
  | Lost
  | Unmeasured

type timed = {
  outcome : outcome;
  cost : float;
}

(* The hot path below works in outcome *codes*, with the probe's value
   and accumulated cost living in [t.scratch] — no [outcome] variant,
   [timed] record, closure or ref cell is built per probe.  The
   variant-returning API ([probe_timed]/[probe]) wraps the code path,
   so both report identical results; golden fixtures hold either way
   because the logic, draw order and instrument updates are
   unchanged. *)
let code_rtt = 0
let code_cached = 1
let code_denied = 2
let code_down = 3
let code_lost = 4
let code_unmeasured = 5

(* One probe after the cache has missed: budget, then the attempt
   loop.  Every wire attempt is charged and counted, including the
   attempts burned against a node in outage (the prober cannot know the
   peer is down until nothing comes back).  [scratch.(1)] accumulates
   what the issuing node waits for: delivered RTTs, timeouts of
   unanswered attempts, and backoff delays between retries.  A
   top-level recursive function, not a local closure, so the loop
   captures nothing. *)
let rec probe_attempt t label i j ~endpoint_down ~retries ~timeout k =
  let st = t.stats in
  let inst = t.inst in
  let s = t.scratch in
  if k > 0 then begin
    st.Probe_stats.retried <- st.Probe_stats.retried + 1;
    Obs.Counter.incr inst.i_retried;
    s.(1) <- s.(1) +. Fault.backoff_delay t.fault ~attempt:k
  end;
  (* Re-admission for retransmissions; the first attempt was charged
     by the caller's admission check. *)
  let admitted =
    k = 0
    ||
    match t.budget with
    | None -> true
    | Some b -> Budget.try_take b ~now:t.clock i
  in
  if not admitted then begin
    st.Probe_stats.denied <- st.Probe_stats.denied + 1;
    Obs.Counter.incr inst.i_denied;
    code_denied
  end
  else begin
    Probe_stats.record_issue st label;
    Obs.Counter.incr inst.i_sent;
    (match label with
    | None -> ()
    | Some plane ->
      select_plane t plane;
      Obs.Counter.incr inst.i_last_sent);
    if endpoint_down then begin
      st.Probe_stats.lost <- st.Probe_stats.lost + 1;
      Obs.Counter.incr inst.i_lost;
      if t.record_loss then Fault.record_outcome t.fault i j ~lost:true;
      s.(1) <- s.(1) +. timeout;
      if k < retries then
        probe_attempt t label i j ~endpoint_down ~retries ~timeout (k + 1)
      else begin
        st.Probe_stats.down <- st.Probe_stats.down + 1;
        Obs.Counter.incr inst.i_down;
        code_down
      end
    end
    else begin
      let true_rtt = Oracle.query t.oracle i j in
      if Float.is_nan true_rtt then begin
        st.Probe_stats.unmeasured <- st.Probe_stats.unmeasured + 1;
        Obs.Counter.incr inst.i_unmeasured;
        (* Indistinguishable from loss at the prober: it waits the
           timeout and its loss estimate takes the hit. *)
        if t.record_loss then Fault.record_outcome t.fault i j ~lost:true;
        s.(1) <- s.(1) +. timeout;
        code_unmeasured
      end
      else if Fault.attempt_into t.fault i j ~rtt:true_rtt ~into:s then begin
        let sample = s.(0) in
        if t.record_loss then Fault.record_outcome t.fault i j ~lost:false;
        s.(1) <- s.(1) +. sample;
        Obs.Histogram.observe inst.i_rtt_ms sample;
        (match t.cache with
        | None -> ()
        | Some c ->
          let evicted = Cache.store c ~now:t.clock i j sample in
          st.Probe_stats.evicted <- st.Probe_stats.evicted + evicted;
          Obs.Counter.add inst.i_evicted (float_of_int evicted));
        code_rtt
      end
      else begin
        st.Probe_stats.lost <- st.Probe_stats.lost + 1;
        Obs.Counter.incr inst.i_lost;
        if t.record_loss then Fault.record_outcome t.fault i j ~lost:true;
        s.(1) <- s.(1) +. timeout;
        if k < retries then
          probe_attempt t label i j ~endpoint_down ~retries ~timeout (k + 1)
        else begin
          st.Probe_stats.failed <- st.Probe_stats.failed + 1;
          Obs.Counter.incr inst.i_failed;
          code_lost
        end
      end
    end
  end

let probe_uncached_code t label i j =
  let st = t.stats in
  let inst = t.inst in
  t.scratch.(1) <- 0.;
  let admitted =
    match t.budget with
    | None -> true
    | Some b -> Budget.try_take b ~now:t.clock i
  in
  if not admitted then begin
    st.Probe_stats.denied <- st.Probe_stats.denied + 1;
    Obs.Counter.incr inst.i_denied;
    code_denied
  end
  else begin
    let endpoint_down =
      Fault.node_down t.fault i || Fault.node_down t.fault j
      || Fault.link_down t.fault i j
    in
    (* The retry budget is sized once per request, from the issuer's
       estimate of this link's loss as it stood before this request. *)
    let retries = Fault.retry_budget t.fault i j in
    let timeout = (Fault.config t.fault).Fault.timeout in
    probe_attempt t label i j ~endpoint_down ~retries ~timeout 0
  end

let probe_code t label i j =
  let st = t.stats in
  let inst = t.inst in
  st.Probe_stats.requests <- st.Probe_stats.requests + 1;
  Obs.Counter.incr inst.i_requests;
  let code =
    match t.cache with
    | None -> probe_uncached_code t label i j
    | Some c ->
      let lc = Cache.find_code c ~now:t.clock ~into:t.scratch i j in
      if lc = Cache.code_hit then begin
        st.Probe_stats.hits <- st.Probe_stats.hits + 1;
        Obs.Counter.incr inst.i_hits;
        t.scratch.(1) <- 0.;
        code_cached
      end
      else begin
        if lc = Cache.code_stale then begin
          st.Probe_stats.stale <- st.Probe_stats.stale + 1;
          Obs.Counter.incr inst.i_stale
        end
        else begin
          st.Probe_stats.misses <- st.Probe_stats.misses + 1;
          Obs.Counter.incr inst.i_misses
        end;
        probe_uncached_code t label i j
      end
  in
  let cost = t.scratch.(1) in
  st.Probe_stats.probe_ms <- st.Probe_stats.probe_ms +. cost;
  Obs.Histogram.observe inst.i_cost_ms cost;
  if cost > 0. then begin
    Obs.Counter.add inst.i_probe_ms cost;
    match label with
    | None -> ()
    | Some plane ->
      select_plane t plane;
      Obs.Counter.add inst.i_last_ms cost
  end;
  if t.config.charge_time && cost > 0. then begin
    t.clock <- t.clock +. (cost /. ms_per_second);
    sync_churn t
  end;
  code

let probe_timed ?label t i j =
  let code = probe_code t label i j in
  let outcome =
    if code = code_rtt then Rtt t.scratch.(0)
    else if code = code_cached then Cached t.scratch.(0)
    else if code = code_denied then Denied
    else if code = code_down then Down
    else if code = code_lost then Lost
    else Unmeasured
  in
  { outcome; cost = t.scratch.(1) }

let probe ?label t i j = (probe_timed ?label t i j).outcome

let rtt ?label t i j =
  let code = probe_code t label i j in
  if code <= code_cached then t.scratch.(0) else nan

let rtt_timed ?label t i j =
  let code = probe_code t label i j in
  let v = if code <= code_cached then t.scratch.(0) else nan in
  (v, t.scratch.(1))

let stats t = t.stats
let reset_stats t = Probe_stats.reset t.stats

let register_plane t plane = ignore (plane_counters t plane : Obs.Counter.t * Obs.Counter.t)
