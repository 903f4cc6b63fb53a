(* Property-test harness for the measurement plane.

   Every test draws random configs and random matrices from a
   generator seeded by TIVAWARE_PROP_SEED (default 0), so the whole
   suite can be re-run under distinct seeds (the CI matrix runs three)
   while any failure stays exactly reproducible. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Budget = Tivaware_measure.Budget
module Cache = Tivaware_measure.Cache
module Fault = Tivaware_measure.Fault
module Profile = Tivaware_measure.Profile
module Churn = Tivaware_measure.Churn
module Dynamics = Tivaware_measure.Dynamics
module Engine = Tivaware_measure.Engine
module Oracle = Tivaware_measure.Oracle
module Probe_stats = Tivaware_measure.Probe_stats
module Obs = Tivaware_obs
module Sim = Tivaware_eventsim.Sim
module Ring = Tivaware_meridian.Ring
module Query = Tivaware_meridian.Query
module Overlay = Tivaware_meridian.Overlay
module Online = Tivaware_meridian.Online
module Selectors = Tivaware_core.Selectors
module System = Tivaware_vivaldi.System
module Severity = Tivaware_tiv.Severity
module Eval = Tivaware_tiv.Eval
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space
module Multicast = Tivaware_overlay.Multicast
module Delay_backend = Tivaware_backend.Delay_backend

let prop_seed =
  match Sys.getenv_opt "TIVAWARE_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

(* Per-test generator: independent of test execution order, offset by
   the test's own salt so tests do not share streams. *)
let rng salt = Rng.create ((prop_seed * 1_000_003) + salt)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let random_matrix ?(missing = 0.) rng ~n =
  let m = Euclidean.uniform_box rng ~n ~dim:3 ~side_ms:300. in
  if missing > 0. then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Rng.bernoulli rng missing then Matrix.set m i j nan
      done
    done;
  m

let random_pair rng n =
  let i = Rng.int rng n in
  let j = (i + 1 + Rng.int rng (n - 1)) mod n in
  (i, j)

(* ------------------------------------------------------------------ *)
(* Cache invariants                                                    *)

(* Model-checked random op sequence: the cache never serves a value
   older than its TTL, and never serves a value other than the last
   stored one for the key. *)
let test_cache_never_stale () =
  let g = rng 1 in
  for _ = 1 to 50 do
    let ttl = Rng.uniform g 0.5 20. in
    let capacity = if Rng.bool g then Some (1 + Rng.int g 8) else None in
    let c = Cache.create ?capacity ~ttl () in
    let model = Hashtbl.create 16 in
    let now = ref 0. in
    for _ = 1 to 200 do
      now := !now +. Rng.uniform g 0. (ttl /. 2.);
      let i = Rng.int g 6 and j = Rng.int g 6 in
      if i <> j then begin
        let key = if i < j then (i, j) else (j, i) in
        if Rng.bool g then begin
          let v = Rng.uniform g 1. 500. in
          ignore (Cache.store c ~now:!now i j v);
          Hashtbl.replace model key (v, !now)
        end
        else begin
          match Cache.find c ~now:!now i j with
          | Cache.Hit v ->
            let mv, mt = Hashtbl.find model key in
            checkb "hit within ttl" true (!now -. mt <= ttl);
            Alcotest.(check (float 0.)) "hit serves last stored value" mv v
          | Cache.Stale -> (
            match Hashtbl.find_opt model key with
            | Some (_, mt) -> checkb "stale only past ttl" true (!now -. mt > ttl)
            | None -> Alcotest.fail "stale entry never stored")
          | Cache.Miss -> ()
        end
      end
    done
  done

let test_cache_capacity_never_exceeded () =
  let g = rng 2 in
  for _ = 1 to 50 do
    let capacity = 1 + Rng.int g 10 in
    let c = Cache.create ~capacity ~ttl:1e6 () in
    for _ = 1 to 300 do
      let i, j = random_pair g 12 in
      ignore (Cache.store c ~now:0. i j (Rng.uniform g 1. 100.));
      checkb "length <= capacity" true (Cache.length c <= capacity)
    done
  done

(* With an effectively infinite TTL the only way entries leave is LRU
   eviction, so inserts of non-resident keys = live entries + evictions
   (a key may cycle in and out any number of times). *)
let test_cache_eviction_counter_identity () =
  let g = rng 3 in
  for _ = 1 to 50 do
    let capacity = 1 + Rng.int g 6 in
    let c = Cache.create ~capacity ~ttl:1e6 () in
    let inserts = ref 0 in
    let reported = ref 0 in
    for _ = 1 to 200 do
      let i, j = random_pair g 10 in
      if Cache.find c ~now:0. i j = Cache.Miss then incr inserts;
      reported := !reported + Cache.store c ~now:0. i j 1.
    done;
    checki "inserts = length + evictions" !inserts
      (Cache.length c + Cache.evictions c);
    checki "store return values sum to evictions" (Cache.evictions c) !reported
  done

(* The key evicted by a capacity overflow is always the one whose last
   use (store or hit) is oldest. *)
let test_cache_evicts_lru_key () =
  let g = rng 4 in
  for _ = 1 to 50 do
    let capacity = 2 + Rng.int g 4 in
    let c = Cache.create ~capacity ~ttl:1e6 () in
    (* recency model: most recent first *)
    let order = ref [] in
    let use key = order := key :: List.filter (( <> ) key) !order in
    for _ = 1 to 150 do
      let i, j = random_pair g 10 in
      let key = (min i j, max i j) in
      if Rng.bool g then begin
        let resident = List.mem key !order in
        let evicted = Cache.store c ~now:0. i j 1. in
        use key;
        if (not resident) && List.length !order > capacity then begin
          checki "overflow evicts exactly one" 1 evicted;
          (* Drop the model's least recent key; it must now miss. *)
          let lru = List.nth !order (List.length !order - 1) in
          order := List.filter (( <> ) lru) !order;
          checkb "lru key misses after eviction" true
            (Cache.find c ~now:0. (fst lru) (snd lru) = Cache.Miss)
        end
        else checki "no eviction otherwise" 0 evicted
      end
      else begin
        match Cache.find c ~now:0. i j with
        | Cache.Hit _ -> use key
        | Cache.Stale | Cache.Miss -> ()
      end
    done
  done

(* Model check against a reference table keyed on [(min i j, max i j)]
   whose entries carry a recency stamp (the least-recent entry is the
   one with the smallest): random store / lookup / clock-advance
   sequences over node indices up to 200k (the lazy backend memo's
   range), with and without a capacity.  Every lookup's code and value,
   every store's eviction count, [length] and [evictions] must agree
   after every step. *)
type cache_op =
  | Store of int * int * float
  | Lookup of bool * int * int  (* [true] = through [find_code] *)
  | Advance of float

let gen_cache_ops ~ttl ~pairs ~max_advance ~ops =
  let open QCheck2.Gen in
  let value = frequency [ (9, float_range 1. 500.); (1, pure nan) ] in
  let op =
    frequency
      [
        (3, map2 (fun (i, j) v -> Store (i, j, v)) pairs value);
        (3, map2 (fun c (i, j) -> Lookup (c, i, j)) bool pairs);
        (1, map (fun d -> Advance d) (float_range 0. (max_advance ttl)));
      ]
  in
  list_size ops op

let gen_cache_case =
  let open QCheck2.Gen in
  let* capacity = opt (int_range 1 12) in
  let* ttl = float_range 0.5 20. in
  let* pool = array_size (int_range 2 10) (int_range 0 199_999) in
  let node = map (fun k -> pool.(k)) (int_range 0 (Array.length pool - 1)) in
  let+ ops =
    gen_cache_ops ~ttl ~pairs:(pair node node) ~max_advance:Fun.id
      ~ops:(int_range 1 300)
  in
  (capacity, ttl, ops)

(* The same model at the size of a serving world: hundreds of nodes,
   thousands of operations over up to 3000 pairs.  The table grows
   several times, and short advances keep hundreds of entries live, so
   stale drops and evictions delete inside long (and wrapped) probe
   runs.  Not shrunk: shrinking thousands of operations takes far
   longer than reading the failing step off the report. *)
let gen_cache_case_at_scale ~bounded =
  let open QCheck2.Gen in
  no_shrink
  @@
  let* capacity =
    if bounded then map Option.some (int_range 16 1024) else pure None
  in
  let* ttl = float_range 0.5 20. in
  let* pool = array_size (int_range 200 400) (int_range 0 199_999) in
  let node = map (fun k -> pool.(k)) (int_range 0 (Array.length pool - 1)) in
  let* known = array_size (int_range 500 3000) (pair node node) in
  let pairs = map (fun k -> known.(k)) (int_range 0 (Array.length known - 1)) in
  let+ ops =
    gen_cache_ops ~ttl ~pairs
      ~max_advance:(fun ttl -> ttl /. 40.)
      ~ops:(int_range 2000 6000)
  in
  (capacity, ttl, ops)

let check_cache_against_model (capacity, ttl, ops) =
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let c = Cache.create ?capacity ~ttl () in
  (* key -> (value, measured at, recency stamp) *)
  let model = Hashtbl.create 16 in
  let clock = ref 0 in
  let stamp () =
    incr clock;
    !clock
  in
  let evictions = ref 0 in
  let now = ref 0. in
  let buf = [| nan |] in
  List.iteri
    (fun step op ->
      (match op with
      | Advance d -> now := !now +. d
      | Store (i, j, v) ->
        let key = (min i j, max i j) in
        let expected =
          if Float.is_nan v then 0
          else begin
            let resident = Hashtbl.mem model key in
            Hashtbl.replace model key (v, !now, stamp ());
            match capacity with
            | Some cap when (not resident) && Hashtbl.length model > cap ->
              let lru, _ =
                Hashtbl.fold
                  (fun k (_, _, s) (lru, oldest) ->
                    if s < oldest then (k, s) else (lru, oldest))
                  model (key, max_int)
              in
              Hashtbl.remove model lru;
              incr evictions;
              1
            | _ -> 0
          end
        in
        let got = Cache.store c ~now:!now i j v in
        if got <> expected then
          fail "step %d: store (%d, %d) evicted %d, model %d" step i j got
            expected
      | Lookup (coded, i, j) ->
        let key = (min i j, max i j) in
        let expected =
          match Hashtbl.find_opt model key with
          | Some (v, t, _) when !now -. t <= ttl ->
            Hashtbl.replace model key (v, t, stamp ());
            Cache.Hit v
          | Some _ ->
            Hashtbl.remove model key;
            Cache.Stale
          | None -> Cache.Miss
        in
        let got =
          if coded then begin
            let code = Cache.find_code c ~now:!now ~into:buf i j in
            if code = Cache.code_hit then Cache.Hit buf.(0)
            else if code = Cache.code_stale then Cache.Stale
            else Cache.Miss
          end
          else Cache.find c ~now:!now i j
        in
        if got <> expected then
          fail "step %d: lookup (%d, %d) disagrees with the model" step i j);
      if Cache.length c <> Hashtbl.length model then
        fail "step %d: length %d, model %d" step (Cache.length c)
          (Hashtbl.length model);
      if Cache.evictions c <> !evictions then
        fail "step %d: evictions %d, model %d" step (Cache.evictions c)
          !evictions)
    ops;
  true

let prop_cache_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"cache = reference model"
       gen_cache_case check_cache_against_model)

let prop_cache_matches_model_at_scale ~bounded =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:
         (if bounded then "cache = reference model at scale, bounded"
          else "cache = reference model at scale")
       (gen_cache_case_at_scale ~bounded)
       check_cache_against_model)

(* A stale drop at the head of a probe run that wraps past the last
   slot: every later member of the run must still be found with its
   own value.  The pairs are picked to share the last two home slots of
   a fresh table (whose size is a power of two of at least 64), so the
   run crosses the wrap whatever that size is. *)
let test_cache_wrapped_run_delete () =
  let mask = 63 in
  let homes = ref [] in
  let j = ref 1 in
  while List.length !homes < 6 do
    if Cache.hash_pair 0 !j land mask >= mask - 1 then homes := !j :: !homes;
    incr j
  done;
  let first, rest =
    match List.rev !homes with
    | first :: rest -> (first, rest)
    | [] -> assert false
  in
  let c = Cache.create ~ttl:3. () in
  ignore (Cache.store c ~now:0. 0 first 1. : int);
  List.iter (fun j -> ignore (Cache.store c ~now:2. 0 j (float_of_int j) : int)) rest;
  checkb "head of the run is stale" true (Cache.find c ~now:4. 0 first = Cache.Stale);
  checki "one entry dropped" (List.length rest) (Cache.length c);
  List.iter
    (fun j ->
      checkb
        (Printf.sprintf "pair (0, %d) still hits" j)
        true
        (Cache.find c ~now:4. 0 j = Cache.Hit (float_of_int j)))
    rest;
  checkb "dropped pair misses" true (Cache.find c ~now:4. 0 first = Cache.Miss)

(* The table hashes every pair of a 400-node world apart: the
   polymorphic hash of the packed key gave these 79,800 pairs 1,021
   distinct values.  Split 65,536 ways, no bucket may hold far more
   than a random hash's. *)
let test_cache_hash_spread () =
  let n = 400 in
  let distinct = Hashtbl.create 100_000 in
  let buckets = Array.make 65_536 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let h = Cache.hash_pair i j in
      checkb "symmetric" true (h = Cache.hash_pair j i);
      checkb "non-negative" true (h >= 0);
      Hashtbl.replace distinct h ();
      let b = h land 65_535 in
      buckets.(b) <- buckets.(b) + 1
    done
  done;
  checkb
    (Printf.sprintf "distinct hashes (%d) >= 79000" (Hashtbl.length distinct))
    true
    (Hashtbl.length distinct >= 79_000);
  let longest = Array.fold_left max 0 buckets in
  checkb (Printf.sprintf "longest chain (%d) <= 12" longest) true (longest <= 12)

(* ------------------------------------------------------------------ *)
(* Budget invariants                                                   *)

let test_budget_denied_consumes_nothing () =
  let g = rng 5 in
  for _ = 1 to 50 do
    let capacity = 1. +. float_of_int (Rng.int g 5) in
    let b =
      Budget.create (Budget.per_node ~capacity ~rate:(Rng.uniform g 0. 2.)) ~n:4
    in
    let now = ref 0. in
    for _ = 1 to 100 do
      now := !now +. Rng.uniform g 0. 0.5;
      let node = Rng.int g 4 in
      let before = Budget.tokens b ~now:!now node in
      let admitted = Budget.try_take b ~now:!now node in
      let after = Budget.tokens b ~now:!now node in
      if admitted then
        checkb "admitted takes one token" true (after <= before -. 1. +. 1e-9)
      else begin
        checkb "denied only when short" true (before < 1.);
        Alcotest.(check (float 1e-9)) "denied leaves tokens" before after
      end
    done
  done

(* Engine level: with a rate-0 bucket of capacity C a node can never
   issue more than C wire attempts; everything beyond is denied and
   consumes nothing (the global bucket stays untouched by denials). *)
let test_engine_budget_conservation () =
  let g = rng 6 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix g ~n in
    let cap = 1 + Rng.int g 5 in
    let config =
      {
        Engine.default_config with
        Engine.budget =
          Some (Budget.per_node ~capacity:(float_of_int cap) ~rate:0.);
        seed = Rng.int g 10_000;
      }
    in
    let e = Engine.of_matrix ~config m in
    let requests = (2 * cap) + Rng.int g 20 in
    for _ = 1 to requests do
      ignore (Engine.rtt e 0 (1 + Rng.int g (n - 1)))
    done;
    let st = Engine.stats e in
    checki "issues bounded by capacity" cap st.Probe_stats.issued;
    checki "excess denied" (requests - cap) st.Probe_stats.denied
  done

(* ------------------------------------------------------------------ *)
(* Engine accounting identities                                        *)

(* Under a random fault config (no budget), every issued attempt is
   delivered, lost or unmeasured — and outcome counts tie exactly to
   the request counts observed by the caller. *)
let test_engine_attempt_accounting () =
  let g = rng 7 in
  for _ = 1 to 25 do
    let n = 10 + Rng.int g 10 in
    let m = random_matrix ~missing:(Rng.uniform g 0. 0.3) g ~n in
    let retries = Rng.int g 4 in
    let policy =
      match Rng.int g 3 with
      | 0 -> Fault.Fixed
      | 1 -> Fault.Backoff Fault.default_backoff
      | _ -> Fault.adaptive ~target_failure:0.05 ()
    in
    let fault =
      { Fault.default with Fault.loss = Rng.uniform g 0. 0.5; retries; policy }
    in
    let config =
      { Engine.default_config with Engine.fault; seed = Rng.int g 10_000 }
    in
    let e = Engine.of_matrix ~config m in
    let delivered = ref 0 and failed = ref 0 and unmeasured = ref 0 in
    let requests = 200 in
    for _ = 1 to requests do
      let i, j = random_pair g n in
      match Engine.probe e i j with
      | Engine.Rtt _ -> incr delivered
      | Engine.Lost -> incr failed
      | Engine.Unmeasured -> incr unmeasured
      | Engine.Cached _ | Engine.Denied | Engine.Down -> ()
    done;
    let st = Engine.stats e in
    checki "requests counted" requests st.Probe_stats.requests;
    checki "issued = delivered + lost + unmeasured"
      st.Probe_stats.issued
      (!delivered + st.Probe_stats.lost + st.Probe_stats.unmeasured);
    checki "failed outcomes" !failed st.Probe_stats.failed;
    checki "unmeasured outcomes" !unmeasured st.Probe_stats.unmeasured;
    checkb "attempts bounded by retry cap" true
      (st.Probe_stats.issued <= requests * (retries + 1));
    checki "retried = issued - first attempts" st.Probe_stats.retried
      (st.Probe_stats.issued - (!delivered + !failed + !unmeasured))
  done

(* With a cache every request resolves to exactly one of hit, miss or
   stale. *)
let test_engine_cache_accounting () =
  let g = rng 8 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix g ~n in
    let ttl = Rng.uniform g 1. 30. in
    let config =
      {
        Engine.default_config with
        Engine.cache_ttl = Some ttl;
        cache_capacity = (if Rng.bool g then Some (1 + Rng.int g 20) else None);
        seed = Rng.int g 10_000;
      }
    in
    let e = Engine.of_matrix ~config m in
    let requests = 300 in
    for _ = 1 to requests do
      if Rng.bernoulli g 0.2 then Engine.advance e (Rng.uniform g 0. ttl);
      let i, j = random_pair g n in
      ignore (Engine.rtt e i j)
    done;
    let st = Engine.stats e in
    checki "hits + misses + stale = requests" requests
      (st.Probe_stats.hits + st.Probe_stats.misses + st.Probe_stats.stale);
    checki "every non-hit issued once" st.Probe_stats.issued
      (st.Probe_stats.misses + st.Probe_stats.stale)
  done

(* When probes cannot fail, the adaptive policy must collapse to one
   attempt per uncached request. *)
let test_engine_no_loss_single_attempt () =
  let g = rng 9 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix g ~n in
    let policy =
      if Rng.bool g then Fault.adaptive ()
      else Fault.Backoff Fault.default_backoff
    in
    let fault = { Fault.default with Fault.retries = 1 + Rng.int g 4; policy } in
    let config =
      { Engine.default_config with Engine.fault; seed = Rng.int g 10_000 }
    in
    let e = Engine.of_matrix ~config m in
    let requests = 100 in
    for _ = 1 to requests do
      let i, j = random_pair g n in
      ignore (Engine.rtt e i j)
    done;
    let st = Engine.stats e in
    checki "one attempt per request" requests st.Probe_stats.issued;
    checki "no retries without loss" 0 st.Probe_stats.retried
  done

(* Labels that switch on every few probes, including strings equal to
   a label but not physically the same, must be attributed exactly as
   a model that keys on label contents: per-label issue counts (which
   reset with [reset_stats]), the per-plane [measure.probes.sent] and
   [measure.probe_ms] series (which do not), and snapshots (which stay
   frozen).  Every reset falls between two issuing probes under one
   label string, so a label memo the reset left behind would be hit. *)
let test_engine_alternating_labels () =
  let g = rng 21 in
  let n = 30 in
  let m = random_matrix ~missing:0.05 g ~n in
  let config =
    {
      Engine.default_config with
      Engine.fault = { Fault.default with Fault.loss = 0.3; retries = 2 };
      cache_ttl = Some 2.;
      charge_time = true;
      seed = Rng.int g 10_000;
    }
  in
  let e = Engine.of_matrix ~config m in
  let copy s = String.init (String.length s) (String.get s) in
  let names = [ "alert"; "meridian"; "vivaldi" ] in
  let labels =
    [| Some "vivaldi"; Some "meridian"; None; Some (copy "vivaldi");
       Some "alert"; Some (copy "meridian") |]
  in
  let issued = Hashtbl.create 8 in
  let sent = Hashtbl.create 8 and probe_ms = Hashtbl.create 8 in
  let bump tbl l d =
    Hashtbl.replace tbl l (d +. Option.value ~default:0. (Hashtbl.find_opt tbl l))
  in
  let model_labels () =
    List.filter_map
      (fun l ->
        Option.map (fun c -> (l, int_of_float c)) (Hashtbl.find_opt issued l))
      names
  in
  let series name l =
    Obs.Counter.value
      (Obs.Registry.counter (Engine.obs e) ~labels:[ ("plane", l) ] name)
  in
  let st = Engine.stats e in
  let check step =
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "step %d: per-label counts" step)
      (model_labels ()) (Probe_stats.labels st);
    List.iter
      (fun l ->
        let want tbl = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
        checkb
          (Printf.sprintf "step %d: %s probes.sent" step l)
          true
          (series "measure.probes.sent" l = want sent);
        checkb
          (Printf.sprintf "step %d: %s probe_ms" step l)
          true
          (series "measure.probe_ms" l = want probe_ms))
      names
  in
  let probe label =
    let before = st.Probe_stats.issued in
    let i, j = random_pair g n in
    let _, cost = Engine.rtt_timed ?label e i j in
    let d = float_of_int (st.Probe_stats.issued - before) in
    Option.iter
      (fun l ->
        if d > 0. then bump issued l d;
        bump sent l d;
        if cost > 0. then bump probe_ms l cost)
      label
  in
  let snap = ref None in
  for step = 1 to 3000 do
    (* Runs of one to three probes per label, then a switch. *)
    let label = labels.(step / (1 + (step mod 3)) mod Array.length labels) in
    probe label;
    if step mod 100 = 0 then check step;
    if step = 1000 then snap := Some (Probe_stats.snapshot st, model_labels ());
    if step mod 700 = 0 then begin
      let l = Some "vivaldi" in
      probe l;
      Engine.reset_stats e;
      Hashtbl.reset issued;
      (* Past the TTL, so the next probe issues at least one attempt. *)
      Engine.advance e 10.;
      probe l;
      check step
    end
  done;
  match !snap with
  | Some (snap, frozen) ->
    Alcotest.(check (list (pair string int)))
      "snapshot frozen" frozen (Probe_stats.labels snap)
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Oracle-mode equivalence                                              *)

let test_default_engine_equals_oracle () =
  let g = rng 10 in
  for _ = 1 to 10 do
    let n = 10 + Rng.int g 30 in
    let m = random_matrix ~missing:(Rng.uniform g 0. 0.4) g ~n in
    let e = Engine.of_matrix m in
    for _ = 1 to 100 do
      let i = Rng.int g n and j = Rng.int g n in
      let truth = Matrix.get m i j and probed = Engine.rtt e i j in
      if Float.is_nan truth then checkb "missing stays nan" true (Float.is_nan probed)
      else Alcotest.(check (float 0.)) "rtt bit-identical" truth probed
    done;
    checkb "clock untouched" true (Engine.now e = 0.);
    checki "no probe_ms magic" 0
      (int_of_float (Engine.stats e).Probe_stats.probe_ms
      - int_of_float (Engine.stats e).Probe_stats.probe_ms)
  done

(* The online (event-sim) query under a default engine reproduces the
   pure-matrix online query: same answer, same probes, same virtual
   latency. *)
let test_online_engine_equals_matrix () =
  let g = rng 11 in
  for _ = 1 to 10 do
    let n = 30 + Rng.int g 30 in
    let m = random_matrix g ~n in
    let nodes = Rng.sample_indices g ~n ~k:(n / 2) in
    let overlay =
      Overlay.build (Rng.create (Rng.int g 10_000)) m Ring.default_config
        ~meridian_nodes:nodes
    in
    let is_meridian i = Overlay.is_meridian overlay i in
    let target = ref (Rng.int g n) in
    while is_meridian !target do
      target := Rng.int g n
    done;
    let client = Rng.int g n and start = nodes.(0) in
    let a =
      Online.closest (Sim.create ()) overlay m ~client ~start ~target:!target
    in
    let sim = Sim.create () in
    let e = Engine.of_matrix m in
    Online.attach sim e;
    let b =
      Online.closest_engine sim overlay e ~client ~start ~target:!target
    in
    checki "same chosen" a.Online.query.Query.chosen b.Online.query.Query.chosen;
    checki "same probes" a.Online.query.Query.probes b.Online.query.Query.probes;
    checki "same hops" a.Online.query.Query.hops b.Online.query.Query.hops;
    Alcotest.(check (float 1e-9))
      "same virtual latency" a.Online.latency b.Online.latency
  done

(* ------------------------------------------------------------------ *)
(* Time accounting                                                      *)

(* charge_time: the engine clock is exactly the charged probe time (in
   seconds), and it never goes backwards. *)
let test_clock_tracks_probe_cost () =
  let g = rng 12 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix ~missing:0.1 g ~n in
    let fault =
      {
        Fault.default with
        Fault.loss = Rng.uniform g 0. 0.4;
        jitter = Rng.uniform g 0. 0.3;
        retries = Rng.int g 3;
        policy = Fault.Backoff Fault.default_backoff;
      }
    in
    let config =
      {
        Engine.default_config with
        Engine.fault;
        charge_time = true;
        seed = Rng.int g 10_000;
      }
    in
    let e = Engine.of_matrix ~config m in
    let last = ref 0. in
    for _ = 1 to 100 do
      let i, j = random_pair g n in
      let { Engine.cost; _ } = Engine.probe_timed e i j in
      checkb "cost non-negative" true (cost >= 0.);
      checkb "clock monotone" true (Engine.now e >= !last);
      last := Engine.now e
    done;
    Alcotest.(check (float 1e-6))
      "clock = charged probe time"
      ((Engine.stats e).Probe_stats.probe_ms /. 1000.)
      (Engine.now e)
  done

(* Delivered samples stay inside the multiplicative jitter band. *)
let test_jitter_band () =
  let g = rng 13 in
  for _ = 1 to 25 do
    let n = 8 + Rng.int g 8 in
    let m = random_matrix g ~n in
    let jitter = Rng.uniform g 0.01 0.5 in
    let config =
      {
        Engine.default_config with
        Engine.fault = { Fault.default with Fault.jitter };
        seed = Rng.int g 10_000;
      }
    in
    let e = Engine.of_matrix ~config m in
    for _ = 1 to 100 do
      let i, j = random_pair g n in
      let truth = Matrix.get m i j in
      match Engine.probe e i j with
      | Engine.Rtt sample ->
        checkb "sample within band" true
          (sample >= truth *. (1. -. jitter) -. 1e-9
          && sample <= truth *. (1. +. jitter) +. 1e-9)
      | _ -> Alcotest.fail "no faults: probe must deliver"
    done
  done

(* Backoff delays grow geometrically and respect the delay-jitter
   band. *)
let test_backoff_delay_schedule () =
  let g = rng 14 in
  for _ = 1 to 50 do
    let base = Rng.uniform g 1. 200. in
    let factor = Rng.uniform g 1. 4. in
    let delay_jitter = if Rng.bool g then 0. else Rng.uniform g 0.01 0.5 in
    let b = { Fault.base; factor; delay_jitter } in
    let config = { Fault.default with Fault.policy = Fault.Backoff b } in
    let f = Fault.create ~config (Rng.create (Rng.int g 10_000)) ~n:4 in
    for attempt = 1 to 6 do
      let expected = base *. (factor ** float_of_int (attempt - 1)) in
      let d = Fault.backoff_delay f ~attempt in
      if delay_jitter = 0. then
        Alcotest.(check (float 1e-9)) "exact geometric delay" expected d
      else
        checkb "jittered delay within band" true
          (d >= expected *. (1. -. delay_jitter) -. 1e-9
          && d <= expected *. (1. +. delay_jitter) +. 1e-9)
    done;
    checkb "no delay before first attempt" true
      (Fault.backoff_delay f ~attempt:0 = 0.)
  done

(* Adaptive retry budgets shrink with the loss estimate and never
   exceed the configured cap. *)
let test_adaptive_retry_budget_bounds () =
  let g = rng 15 in
  for _ = 1 to 50 do
    let retries = 1 + Rng.int g 5 in
    let target_failure = Rng.uniform g 0.001 0.2 in
    let config =
      {
        Fault.default with
        Fault.retries;
        policy = Fault.adaptive ~target_failure ();
      }
    in
    let f = Fault.create ~config (Rng.create 1) ~n:3 in
    checki "fresh link needs no retries" 0 (Fault.retry_budget f 0 1);
    (* Drive the link's loss estimate up with observed losses. *)
    let prev = ref 0 in
    for _ = 1 to 60 do
      Fault.record_outcome f 0 1 ~lost:true;
      let b = Fault.retry_budget f 0 1 in
      checkb "budget within cap" true (b >= 0 && b <= retries);
      checkb "budget non-decreasing as loss grows" true (b >= !prev);
      prev := b
    done;
    checkb "high loss earns retries" true (!prev >= 1);
    (* A cold sibling link inherits the prober's aggregate experience;
       a different prober's links are untouched. *)
    checkb "cold sibling inherits prober estimate" true
      (Fault.retry_budget f 0 2 >= 1);
    checki "other prober unaffected" 0 (Fault.retry_budget f 1 0);
    (* And back down with successes. *)
    for _ = 1 to 200 do
      Fault.record_outcome f 0 1 ~lost:false
    done;
    checki "recovered link needs none again" 0 (Fault.retry_budget f 0 1)
  done

(* Model check of the per-link loss estimator against the reference it
   replaced: one Hashtbl cell [|ewma; count|] per directed link, keyed
   on [i * n + j], shrunk toward the source node's aggregate.  Random
   record / read sequences under [Fault.adaptive], with [n] up to
   100 000 (keys past 2^31) and, in most cases, several hundred distinct
   links, so the table grows at least three times.  Every estimate must
   be bit-identical ([Float.equal]) and every retry budget equal. *)
module Ref_loss = struct
  type t = { n : int; links : (int, float array) Hashtbl.t; nodes : float array }

  let alpha = 0.1
  let prior = 5.
  let create n = { n; links = Hashtbl.create 64; nodes = Array.make n 0. }
  let in_range t i j = i >= 0 && i < t.n && j >= 0 && j < t.n
  let ewma prev sample = (alpha *. sample) +. ((1. -. alpha) *. prev)

  let record t i j ~lost =
    if in_range t i j then begin
      let key = (i * t.n) + j in
      let cell =
        match Hashtbl.find_opt t.links key with
        | Some c -> c
        | None ->
          let c = [| 0.; 0. |] in
          Hashtbl.add t.links key c;
          c
      in
      let sample = if lost then 1. else 0. in
      cell.(0) <- ewma cell.(0) sample;
      cell.(1) <- cell.(1) +. 1.;
      t.nodes.(i) <- ewma t.nodes.(i) sample
    end

  let estimated t i j =
    if not (in_range t i j) then 0.
    else
      match Hashtbl.find_opt t.links ((i * t.n) + j) with
      | Some cell ->
        let w = cell.(1) /. (cell.(1) +. prior) in
        (w *. cell.(0)) +. ((1. -. w) *. t.nodes.(i))
      | None -> t.nodes.(i)

  let budget t ~retries ~target_failure i j =
    let loss = estimated t i j in
    let needed =
      if loss <= target_failure then 0
      else if loss >= 1. then max_int
      else begin
        let r = ceil (log target_failure /. log loss) -. 1. in
        if Float.is_nan r || r > 1e9 then max_int else max 0 (int_of_float r)
      end
    in
    min retries needed
end

type loss_op = Record of int * int * bool | Read of int * int

let gen_loss_case =
  let open QCheck2.Gen in
  let* n = frequency [ (1, int_range 2 40); (4, int_range 50_000 100_000) ] in
  let* retries = int_range 1 6 in
  let* target_failure = float_range 0.001 0.2 in
  let* lossy = float_range 0. 1. in
  (* Out-of-range indices too: both calls must ignore them alike. *)
  let node = frequency [ (30, int_range 0 (n - 1)); (1, int_range (-2) (n + 2)) ] in
  let* pool = array_size (int_range 400 900) (pair node node) in
  let link = map (fun k -> pool.(k)) (int_range 0 (Array.length pool - 1)) in
  let lost = map (fun u -> u < lossy) (float_range 0. 1.) in
  let op =
    frequency
      [
        (3, map2 (fun (i, j) l -> Record (i, j, l)) link lost);
        (1, map (fun (i, j) -> Read (i, j)) link);
      ]
  in
  (* Every pool link is recorded once, then random traffic follows. *)
  let first = Array.to_list pool in
  let* first_lost = list_repeat (List.length first) lost in
  let* rest = list_size (int_range 100 1500) op in
  pure
    ( n,
      retries,
      target_failure,
      List.map2 (fun (i, j) l -> Record (i, j, l)) first first_lost @ rest )

let prop_loss_estimator_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"loss estimator = reference model"
       gen_loss_case (fun (n, retries, target_failure, ops) ->
         let fail fmt = QCheck2.Test.fail_reportf fmt in
         let config =
           {
             Fault.default with
             Fault.retries;
             policy = Fault.adaptive ~target_failure ();
           }
         in
         let f = Fault.create ~config (Rng.create 1) ~n in
         let model = Ref_loss.create n in
         let check step i j =
           let got = Fault.estimated_loss f i j
           and want = Ref_loss.estimated model i j in
           if not (Float.equal got want) then
             fail "step %d: estimated_loss %d %d = %h, model %h" step i j got
               want;
           let got = Fault.retry_budget f i j
           and want = Ref_loss.budget model ~retries ~target_failure i j in
           if got <> want then
             fail "step %d: retry_budget %d %d = %d, model %d" step i j got want
         in
         List.iteri
           (fun step op ->
             match op with
             | Record (i, j, lost) ->
               Fault.record_outcome f i j ~lost;
               Ref_loss.record model i j ~lost;
               check step i j
             | Read (i, j) -> check step i j)
           ops;
         (* Every link the model knows still reads back identically. *)
         Hashtbl.iter
           (fun key _ -> check (List.length ops) (key / n) (key mod n))
           model.Ref_loss.links;
         true))

(* ------------------------------------------------------------------ *)
(* Per-link profiles                                                    *)

let zero_profile = Profile.uniform ~name:"zero" Profile.clean

(* An all-zero per-link profile is the oracle, on every protocol layer:
   the profile machinery must add no RNG draws, no costs and no state,
   so each protocol's run is structurally identical with and without
   it. *)
let test_zero_fault_profile_equals_oracle_protocols () =
  let g = rng 17 in
  let n = 40 in
  let m = random_matrix g ~n in
  let mk profile =
    Engine.of_matrix
      ~config:{ Engine.default_config with Engine.profile; seed = Rng.int g 10_000 }
      m
  in
  (* Vivaldi: bit-identical final coordinates. *)
  let coords profile =
    let sys =
      Selectors.embed_vivaldi_engine ~rounds:40 (Rng.create 21) (mk profile)
    in
    Array.init n (fun i -> (System.coord sys i, System.error_estimate sys i))
  in
  checkb "vivaldi coordinates bit-identical" true
    (coords None = coords (Some zero_profile));
  (* Meridian: identical query traces (chosen, delay, probes, hops,
     path). *)
  let nodes = Rng.sample_indices (Rng.create 23) ~n ~k:15 in
  let overlay =
    Selectors.meridian_build m (Ring.unlimited_config n) (Rng.create 25) nodes
  in
  let meridian_trace profile =
    let e = mk profile in
    let pick = Rng.create 27 in
    List.init 25 (fun _ ->
        let start = nodes.(Rng.int pick (Array.length nodes)) in
        let target = Rng.int pick n in
        if Array.mem target nodes then None
        else Some (Query.closest_engine overlay e ~start ~target))
  in
  checkb "meridian traces identical" true
    (meridian_trace None = meridian_trace (Some zero_profile));
  (* TIV alert: identical accuracy/recall sweep. *)
  let system = Selectors.embed_vivaldi (Rng.create 29) m in
  let severity = Severity.all m in
  let alert_points profile =
    Eval.evaluate_engine ~engine:(mk profile)
      ~predicted:(fun i j -> System.predicted system i j)
      ~severity ~worst_fraction:0.1 ~thresholds:Eval.default_thresholds
  in
  checkb "alert sweep identical" true
    (alert_points None = alert_points (Some zero_profile));
  (* Chord PNS: identical fingers, hence identical lookups. *)
  let truth = Delay_backend.dense m in
  let dht_digest profile =
    let overlay = Chord.build_engine ~candidates:6 (mk profile) in
    let r = Rng.create 31 in
    List.init 40 (fun _ ->
        let l =
          Chord.lookup_backend overlay truth ~source:(Rng.int r n)
            ~key:(Rng.int r Id_space.modulus)
        in
        (l.Chord.hops, l.Chord.latency))
  in
  checkb "dht lookups identical" true
    (dht_digest None = dht_digest (Some zero_profile));
  (* Overlay multicast: identical tree metrics and refresh switches. *)
  let multicast_digest profile =
    let e = mk profile in
    let join_order = Rng.permutation (Rng.create 33) n in
    let t = Multicast.build_engine ~config:Multicast.default_config e ~join_order in
    let switches = Multicast.refresh_engine t (Rng.create 35) e in
    (Multicast.evaluate_backend t truth, switches)
  in
  checkb "multicast tree identical" true
    (multicast_digest None = multicast_digest (Some zero_profile))

(* A uniform profile built from the global rates reproduces the
   historical global fault model probe for probe: same outcomes, same
   costs, same counters, same clock — under the same seed, for any
   config. *)
let test_uniform_profile_matches_global_model () =
  let g = rng 18 in
  for _ = 1 to 15 do
    let n = 10 + Rng.int g 10 in
    let m = random_matrix ~missing:(Rng.uniform g 0. 0.2) g ~n in
    let loss = Rng.uniform g 0. 0.5 in
    let jitter = Rng.uniform g 0. 0.4 in
    let outage = Rng.uniform g 0. 0.2 in
    let retries = Rng.int g 3 in
    let policy =
      match Rng.int g 3 with
      | 0 -> Fault.Fixed
      | 1 -> Fault.Backoff { Fault.default_backoff with Fault.delay_jitter = 0.1 }
      | _ -> Fault.adaptive ~target_failure:0.05 ()
    in
    let fault =
      { Fault.default with Fault.loss; jitter; outage; retries; policy }
    in
    let seed = Rng.int g 100_000 in
    let mk profile =
      Engine.of_matrix
        ~config:
          {
            Engine.default_config with
            Engine.fault;
            profile;
            charge_time = true;
            seed;
          }
        m
    in
    let a = mk None and b = mk (Some (Profile.of_rates ~loss ~jitter)) in
    let wl_seed = Rng.int g 100_000 in
    let replay e =
      let wl = Rng.create wl_seed in
      List.init 300 (fun _ ->
          let i, j = random_pair wl n in
          Engine.probe_timed e i j)
    in
    let ta = replay a and tb = replay b in
    List.iter2
      (fun (x : Engine.timed) (y : Engine.timed) ->
        checkb "outcome identical" true (x.Engine.outcome = y.Engine.outcome);
        Alcotest.(check (float 0.)) "cost identical" x.Engine.cost y.Engine.cost)
      ta tb;
    let sa = Engine.stats a and sb = Engine.stats b in
    checki "issued identical" sa.Probe_stats.issued sb.Probe_stats.issued;
    checki "lost identical" sa.Probe_stats.lost sb.Probe_stats.lost;
    checki "retried identical" sa.Probe_stats.retried sb.Probe_stats.retried;
    checki "down identical" sa.Probe_stats.down sb.Probe_stats.down;
    Alcotest.(check (float 0.))
      "probe_ms identical" sa.Probe_stats.probe_ms sb.Probe_stats.probe_ms;
    Alcotest.(check (float 0.)) "clock identical" (Engine.now a) (Engine.now b)
  done

(* The per-link loss estimator converges to each link's configured rate
   (time-averaged over the EWMA's stationary noise), and keeps links of
   the same prober apart. *)
let test_per_link_estimate_converges () =
  let g = rng 19 in
  for _ = 1 to 10 do
    let f = Fault.create (Rng.create (Rng.int g 10_000)) ~n:6 in
    List.iter
      (fun (i, j) ->
        let rate = Rng.uniform g 0.05 0.9 in
        let sum = ref 0. and count = ref 0 in
        for k = 1 to 3000 do
          Fault.record_outcome f i j ~lost:(Rng.bernoulli g rate);
          if k > 500 then begin
            sum := !sum +. Fault.estimated_loss f i j;
            incr count
          end
        done;
        let avg = !sum /. float_of_int !count in
        checkb
          (Printf.sprintf "estimate tracks configured rate (%.3f vs %.3f)" avg
             rate)
          true
          (abs_float (avg -. rate) < 0.08))
      [ (0, 1); (0, 2); (3, 4) ]
  done;
  (* Discrimination: a prober with one lossy and one clean link keeps
     their estimates apart even though both feed its node aggregate. *)
  let f = Fault.create (Rng.create 1) ~n:4 in
  for _ = 1 to 500 do
    Fault.record_outcome f 0 1 ~lost:true;
    Fault.record_outcome f 0 2 ~lost:false
  done;
  checkb "lossy link estimated high" true (Fault.estimated_loss f 0 1 > 0.9);
  checkb "clean sibling estimated low" true (Fault.estimated_loss f 0 2 < 0.1)

(* Per-link profile validation rejects out-of-range entries and names
   the offending link in the message, field by field. *)
let test_profile_validation_names_link () =
  let g = rng 20 in
  let m = random_matrix g ~n:6 in
  let contains s sub =
    let ls = String.length s and lb = String.length sub in
    let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
    go 0
  in
  let expect_bad ~field bad_link =
    (* Only link 2->3 is malformed; the message must say so. *)
    let profile =
      Profile.make "bad" (fun i j ->
          if i = 2 && j = 3 then bad_link else Profile.clean)
    in
    let config = { Engine.default_config with Engine.profile = Some profile } in
    match Engine.of_matrix ~config m with
    | _ -> Alcotest.failf "bad %s accepted" field
    | exception Invalid_argument msg ->
      checkb (Printf.sprintf "%s error names the link (%s)" field msg) true
        (contains msg "2->3");
      checkb (Printf.sprintf "%s error names the field (%s)" field msg) true
        (contains msg field)
  in
  expect_bad ~field:"loss" { Profile.clean with Profile.loss = 1.5 };
  expect_bad ~field:"loss" { Profile.clean with Profile.loss = -0.1 };
  expect_bad ~field:"loss" { Profile.clean with Profile.loss = Float.nan };
  expect_bad ~field:"jitter" { Profile.clean with Profile.jitter = 1. };
  expect_bad ~field:"jitter" { Profile.clean with Profile.jitter = Float.nan };
  expect_bad ~field:"outage" { Profile.clean with Profile.outage = 2. };
  expect_bad ~field:"outage" { Profile.clean with Profile.outage = -1. };
  expect_bad ~field:"extra_delay" { Profile.clean with Profile.extra_delay = -5. };
  expect_bad ~field:"extra_delay"
    { Profile.clean with Profile.extra_delay = Float.nan };
  (* Exact message shape, pinned once. *)
  Alcotest.check_raises "exact message"
    (Invalid_argument "ctx: link 2->3: loss must be in [0, 1] (got 1.5)")
    (fun () ->
      Profile.validate_link "ctx" ~id:"2->3"
        { Profile.clean with Profile.loss = 1.5 });
  (* A function profile formats the id only for the failing link, and
     the message is the same bytes [validate_link] writes — for the
     last link scanned too. *)
  Alcotest.check_raises "function profile names i->j"
    (Invalid_argument "ctx: link 5->4: jitter must be in [0, 1) (got 1)")
    (fun () ->
      Profile.validate "ctx" ~n:6
        (Profile.make "bad" (fun i j ->
             if i = 5 && j = 4 then { Profile.clean with Profile.jitter = 1. }
             else Profile.clean)));
  Alcotest.check_raises "first failing field wins"
    (Invalid_argument "ctx: link 0->1: outage must be in [0, 1] (got 2)")
    (fun () ->
      Profile.validate "ctx" ~n:6
        (Profile.make "bad" (fun i j ->
             if i = 0 && j = 1 then
               { Profile.clean with Profile.outage = 2.; extra_delay = -1. }
             else Profile.clean)));
  (* The stock constructors always validate, whatever the bases. *)
  for _ = 1 to 20 do
    let loss = Rng.uniform g 0. 0.99 and jitter = Rng.uniform g 0. 0.99 in
    let cluster_of = Array.init 6 (fun i -> if i mod 3 = 0 then -1 else i mod 2) in
    Profile.validate "test" ~n:6 (Profile.topology ~loss ~jitter ~cluster_of ());
    Profile.validate "test" ~n:6
      (Profile.random ~loss ~jitter ~outage:(Rng.uniform g 0. 1.) ~seed:(Rng.int g 1000) ())
  done

(* ------------------------------------------------------------------ *)
(* Config validation                                                    *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_config_validation () =
  let g = rng 16 in
  let m = random_matrix g ~n:6 in
  let mk config = ignore (Engine.of_matrix ~config m) in
  let base = Engine.default_config in
  List.iter
    (fun (name, config) ->
      checkb name true (raises_invalid (fun () -> mk config)))
    [
      ( "negative cache_ttl",
        { base with Engine.cache_ttl = Some (-. Rng.uniform g 0.1 10.) } );
      ("zero cache_ttl", { base with Engine.cache_ttl = Some 0. });
      ("nan cache_ttl", { base with Engine.cache_ttl = Some nan });
      ( "zero cache capacity",
        { base with Engine.cache_ttl = Some 1.; cache_capacity = Some 0 } );
      ( "capacity without ttl",
        { base with Engine.cache_capacity = Some 4 } );
      ( "zero-capacity budget",
        { base with Engine.budget = Some (Budget.per_node ~capacity:0. ~rate:1.) } );
      ( "negative budget rate",
        { base with Engine.budget = Some (Budget.per_node ~capacity:5. ~rate:(-1.)) } );
      ( "loss out of range",
        { base with Engine.fault = { Fault.default with Fault.loss = 1.5 } } );
      ( "negative retries",
        { base with Engine.fault = { Fault.default with Fault.retries = -1 } } );
      ( "negative timeout",
        { base with Engine.fault = { Fault.default with Fault.timeout = -5. } } );
      ( "backoff factor below one",
        {
          base with
          Engine.fault =
            {
              Fault.default with
              Fault.policy =
                Fault.Backoff { Fault.default_backoff with Fault.factor = 0.5 };
            };
        } );
      ( "target_failure out of range",
        {
          base with
          Engine.fault =
            { Fault.default with Fault.policy = Fault.adaptive ~target_failure:1.5 () };
        } );
    ];
  (* And a valid non-trivial config constructs fine. *)
  mk
    {
      Engine.fault =
        {
          Fault.default with
          Fault.loss = 0.1;
          retries = 2;
          policy = Fault.adaptive ();
        };
      profile = Some (Profile.random ~loss:0.1 ~jitter:0.2 ~seed:5 ());
      churn = Some { Churn.default with Churn.fraction = 0.3 };
      dynamics =
        Some
          {
            Dynamics.diurnal = Some Dynamics.default_diurnal;
            route_flap = Some Dynamics.default_route_flap;
            seed = 4;
          };
      budget = Some (Budget.per_node ~capacity:10. ~rate:1.);
      cache_ttl = Some 5.;
      cache_capacity = Some 64;
      charge_time = true;
      seed = 3;
    }

(* ------------------------------------------------------------------ *)
(* Churn: event-driven schedule                                         *)

(* The reference the heap-driven schedule replaced: every advance walks
   all n nodes and steps each churning one past the new time.  Same
   per-node generators, same draw order. *)
module Ref_churn = struct
  type node = { rng : Rng.t; mutable up : bool; mutable next : float }

  type t = {
    config : Churn.config;
    nodes : node option array;
    mutable time : float;
    mutable transitions : int;
  }

  let create (config : Churn.config) ~n =
    let node_of i =
      let rng = Rng.create ((config.Churn.seed * 2_000_029) + i) in
      if Rng.float rng 1. < config.Churn.fraction then
        Some
          {
            rng;
            up = true;
            next = Rng.exponential rng ~rate:(1. /. config.Churn.mean_up);
          }
      else None
    in
    { config; nodes = Array.init n node_of; time = 0.; transitions = 0 }

  let advance_to t time =
    if time > t.time then begin
      Array.iter
        (function
          | None -> ()
          | Some st ->
            while st.next <= time do
              st.up <- not st.up;
              t.transitions <- t.transitions + 1;
              let mean =
                if st.up then t.config.Churn.mean_up else t.config.Churn.mean_down
              in
              st.next <- st.next +. Rng.exponential st.rng ~rate:(1. /. mean)
            done)
        t.nodes;
      t.time <- time
    end

  let churning t i = t.nodes.(i) <> None
  let is_up t i = match t.nodes.(i) with None -> true | Some st -> st.up
end

(* Clock steps relative to the previous target: equal (zero),
   backwards, tiny, ordinary and very large (tens of up/down cycles). *)
let gen_churn_step cycle =
  let open QCheck2.Gen in
  frequency
    [
      (2, pure 0.);
      (2, float_range (-2. *. cycle) (-1e-9));
      (3, float_range 1e-9 1e-3);
      (6, float_range 0. (2. *. cycle));
      (1, float_range (10. *. cycle) (30. *. cycle));
    ]

let gen_churn_config =
  let open QCheck2.Gen in
  let* fraction =
    frequency [ (1, pure 0.); (1, pure 1.); (6, float_range 0. 1.) ]
  in
  let* mean_up = float_range 0.5 120. in
  let* mean_down = float_range 0.5 60. in
  let* seed = int_range 0 1_000_000 in
  pure { Churn.fraction; mean_up; mean_down; seed }

let gen_churn_case =
  let open QCheck2.Gen in
  let* n = frequency [ (1, int_range 0 30); (3, int_range 200 2000) ] in
  let* config = gen_churn_config in
  let+ steps =
    list_size (int_range 1 40)
      (gen_churn_step (config.Churn.mean_up +. config.Churn.mean_down))
  in
  (n, config, steps)

let prop_churn_matches_scan =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"churn schedule = O(n) scan model"
       gen_churn_case (fun (n, config, steps) ->
         let fail fmt = QCheck2.Test.fail_reportf fmt in
         let c = Churn.create ~config ~n () in
         let model = Ref_churn.create config ~n in
         let target = ref 0. in
         List.iteri
           (fun step dt ->
             target := !target +. dt;
             Churn.advance_to c !target;
             Ref_churn.advance_to model !target;
             if not (Float.equal (Churn.now c) model.Ref_churn.time) then
               fail "step %d: now %h, model %h" step (Churn.now c)
                 model.Ref_churn.time;
             if Churn.transitions c <> model.Ref_churn.transitions then
               fail "step %d: transitions %d, model %d" step
                 (Churn.transitions c) model.Ref_churn.transitions;
             for i = 0 to n - 1 do
               if Churn.churning c i <> Ref_churn.churning model i then
                 fail "step %d: node %d churning disagrees" step i;
               if Churn.is_up c i <> Ref_churn.is_up model i then
                 fail "step %d: node %d is_up %b, model %b" step i
                   (Churn.is_up c i) (Ref_churn.is_up model i)
             done)
           steps;
         true))

type clock_op = Advance_to of float | Advance of float | Probe of int * int

(* Engine level: whatever moves the clock — absolute sets (backwards
   ones included), relative steps (zero ones included) and charged
   probes that time out on down nodes — every churning node's outage
   bit equals [not (is_up)], and every other node keeps the static
   [outage] draw of a fresh injector with the same seed. *)
let gen_engine_churn_case =
  let open QCheck2.Gen in
  let* n = int_range 2 600 in
  let* churn = gen_churn_config in
  let* outage = float_range 0. 0.5 in
  let* seed = int_range 0 1_000_000 in
  let cycle = churn.Churn.mean_up +. churn.Churn.mean_down in
  let op =
    frequency
      [
        (3, map (fun dt -> Advance_to dt) (gen_churn_step cycle));
        (2, map (fun dt -> Advance (Float.abs dt)) (gen_churn_step cycle));
        (2, map2 (fun i j -> Probe (i, j)) (int_range 0 (n - 1)) (int_range 0 (n - 1)));
      ]
  in
  let+ ops = list_size (int_range 1 60) op in
  (n, churn, outage, seed, ops)

let prop_engine_outage_mirrors_churn =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"engine outage set mirrors churn"
       gen_engine_churn_case (fun (n, churn, outage, seed, ops) ->
         let fail fmt = QCheck2.Test.fail_reportf fmt in
         let fault = { Fault.default with Fault.outage } in
         let e =
           Engine.create
             ~config:
               {
                 Engine.default_config with
                 Engine.fault;
                 churn = Some churn;
                 charge_time = true;
                 seed;
               }
             (Oracle.of_fn ~size:n (fun i j -> if i = j then 0. else 20.))
         in
         let static = Fault.create ~config:fault (Rng.create seed) ~n in
         let c = Option.get (Engine.churn e) in
         let check step =
           let f = Engine.fault e in
           if not (Float.equal (Churn.now c) (Engine.now e)) then
             fail "step %d: churn clock %h, engine %h" step (Churn.now c)
               (Engine.now e);
           for i = 0 to n - 1 do
             let want =
               if Churn.churning c i then not (Churn.is_up c i)
               else Fault.node_down static i
             in
             if Fault.node_down f i <> want then
               fail "step %d: node %d down=%b, want %b (churning %b)" step i
                 (Fault.node_down f i) want (Churn.churning c i)
           done
         in
         check (-1);
         let target = ref 0. in
         List.iteri
           (fun step op ->
             (match op with
             | Advance_to dt ->
               target := !target +. dt;
               Engine.advance_to e !target
             | Advance dt -> Engine.advance e dt
             | Probe (i, j) -> ignore (Engine.probe e i j : Engine.outcome));
             check step)
           ops;
         true))

(* ------------------------------------------------------------------ *)
(* Dynamics and repair: off means bit-for-bit off                      *)

(* A dynamics layer whose knobs are all at zero is not "almost" the
   static profile — it must replay it probe for probe: same outcomes,
   same costs, same accounting, under any clock movement. *)
let test_zero_dynamics_replays_static () =
  let g = rng 17 in
  for _ = 1 to 10 do
    let n = 6 + Rng.int g 6 in
    let m = random_matrix g ~n in
    let seed = Rng.int g 10_000 in
    let profile =
      Profile.random ~loss:(Rng.uniform g 0. 0.3) ~jitter:(Rng.uniform g 0. 0.3)
        ~seed:(Rng.int g 1000) ()
    in
    let config dynamics =
      {
        Engine.default_config with
        Engine.fault = { Fault.default with Fault.loss = 0.1; retries = 1 };
        profile = Some profile;
        dynamics;
        charge_time = true;
        seed;
      }
    in
    let inert =
      {
        Dynamics.diurnal =
          Some
            {
              Dynamics.default_diurnal with
              Dynamics.loss_amplitude = 0.;
              jitter_amplitude = 0.;
            };
        route_flap = Some { Dynamics.rate = 0.; max_extra = 40. };
        seed = Rng.int g 1000;
      }
    in
    let a = Engine.of_matrix ~config:(config None) m in
    let b = Engine.of_matrix ~config:(config (Some inert)) m in
    let wl = Rng.create (seed + 1) in
    for _ = 1 to 300 do
      let i, j = random_pair wl n in
      let ta = Engine.probe_timed a i j and tb = Engine.probe_timed b i j in
      checkb "same outcome" true (ta.Engine.outcome = tb.Engine.outcome);
      Alcotest.(check (float 0.)) "same cost" ta.Engine.cost tb.Engine.cost
    done;
    Alcotest.(check (float 0.)) "same clock" (Engine.now a) (Engine.now b);
    checki "same attempts issued" (Engine.stats a).Probe_stats.issued
      (Engine.stats b).Probe_stats.issued
  done

(* Route-change schedules are a pure function of (config, T): the link
   state after one jump to T equals the state after any staircase of
   advances, however the links were queried along the way. *)
let test_route_flap_path_independent () =
  let g = rng 18 in
  for _ = 1 to 10 do
    let n = 5 + Rng.int g 5 in
    let base = Profile.of_rates ~loss:0.05 ~jitter:0.1 in
    let config =
      {
        Dynamics.diurnal = None;
        route_flap =
          Some
            {
              Dynamics.rate = Rng.uniform g 0.01 0.2;
              max_extra = Rng.uniform g 5. 80.;
            };
        seed = Rng.int g 1000;
      }
    in
    let horizon = Rng.uniform g 50. 400. in
    let jump = Dynamics.create ~config base in
    let steps = Dynamics.create ~config base in
    Dynamics.advance_to jump horizon;
    let t = ref 0. in
    while !t < horizon do
      t := !t +. Rng.uniform g 0.5 20.;
      Dynamics.advance_to steps (Float.min !t horizon);
      (* Interleave queries: lazy materialization must not bend the
         schedule. *)
      let i, j = random_pair g n in
      ignore (Dynamics.link steps i j)
    done;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let a = Dynamics.link jump i j and b = Dynamics.link steps i j in
          Alcotest.(check (float 0.))
            (Printf.sprintf "extra_delay %d->%d" i j)
            a.Profile.extra_delay b.Profile.extra_delay;
          Alcotest.(check (float 0.))
            (Printf.sprintf "loss %d->%d" i j)
            a.Profile.loss b.Profile.loss
        end
      done
    done;
    (* Both have now materialized every stream up to the horizon. *)
    checki "same route-change count" (Dynamics.route_changes jump)
      (Dynamics.route_changes steps)
  done

(* Building the repair machinery without churn must change nothing:
   maintenance passes find nothing to do, and protocol answers are
   identical to a freshly built structure. *)
let test_repair_inert_without_churn () =
  let g = rng 19 in
  let n = 24 in
  let m = random_matrix g ~n in
  (* Chord: healing on a churn-free engine marks nobody and reroutes
     nothing; lookups keep terminating at the structural owner. *)
  let e = Engine.of_matrix m in
  let t = Chord.build_engine ~successor_list:6 e in
  let h = Chord.heal_engine t e in
  checkb "heal probed" true (h.Chord.checked > 0);
  checki "nobody marked dead" 0 h.Chord.marked_dead;
  checki "nobody rerouted" 0 h.Chord.rerouted;
  for _ = 1 to 100 do
    let key = Id_space.add (Id_space.of_node (Rng.int g n)) (Rng.int g 1_000_000) in
    checki "live owner = structural owner" (Chord.owner_of t key)
      (Chord.live_owner_of t key);
    let o =
      Chord.lookup_backend t (Delay_backend.dense m) ~source:(Rng.int g n) ~key
    in
    checki "lookup lands on the structural owner" (Chord.owner_of t key)
      o.Chord.owner
  done;
  (* Meridian: ring maintenance on a churn-free engine evicts nothing
     and gossips nothing. *)
  let nodes = Rng.sample_indices g ~n ~k:10 in
  let overlay =
    Overlay.build g m (Ring.unlimited_config n) ~meridian_nodes:nodes
  in
  let before = Array.map (Overlay.ring_population overlay) nodes in
  let r = Overlay.repair_engine overlay e in
  checki "no evictions" 0 r.Overlay.evicted;
  checki "no re-entries" 0 r.Overlay.reentered;
  checki "nothing pending" 0 (Overlay.pending_reentries overlay);
  Array.iteri
    (fun idx node ->
      Alcotest.(check (array int))
        (Printf.sprintf "rings of %d unchanged" node)
        before.(idx)
        (Overlay.ring_population overlay node))
    nodes;
  (* Multicast: repair detaches and rejoins nobody, and the parent
     relation is untouched. *)
  let join_order = Array.init n Fun.id in
  Rng.shuffle g join_order;
  let tree = Multicast.build_engine e ~join_order in
  let parents = Array.init n (Multicast.parent tree) in
  let mr = Multicast.repair_engine tree g e in
  checki "nothing detached" 0 mr.Multicast.detached;
  checki "nothing rejoined" 0 mr.Multicast.rejoined;
  for i = 0 to n - 1 do
    checkb "parent unchanged" true (parents.(i) = Multicast.parent tree i)
  done;
  (* Vivaldi: neighbor repair on a churn-free engine evicts nothing and
     keeps every neighbor set intact. *)
  let module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors in
  let sys = System.create_with_engine g e in
  let neighbors = Array.init n (System.neighbors sys) in
  let vr = Dynamic_neighbors.repair_neighbors sys in
  checki "no neighbor evictions" 0 vr.Dynamic_neighbors.evicted;
  checki "no resampling" 0 vr.Dynamic_neighbors.resampled;
  for i = 0 to n - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "neighbors of %d unchanged" i)
      neighbors.(i) (System.neighbors sys i)
  done

let () =
  Alcotest.run "measure-properties"
    [
      ( "cache",
        [
          Alcotest.test_case "never serves past ttl" `Quick test_cache_never_stale;
          Alcotest.test_case "capacity never exceeded" `Quick
            test_cache_capacity_never_exceeded;
          Alcotest.test_case "eviction counter identity" `Quick
            test_cache_eviction_counter_identity;
          Alcotest.test_case "evicts the lru key" `Quick test_cache_evicts_lru_key;
          prop_cache_matches_model;
          prop_cache_matches_model_at_scale ~bounded:false;
          prop_cache_matches_model_at_scale ~bounded:true;
          Alcotest.test_case "stale drop inside a wrapped probe run" `Quick
            test_cache_wrapped_run_delete;
          Alcotest.test_case "key hash spread" `Quick test_cache_hash_spread;
        ] );
      ( "budget",
        [
          Alcotest.test_case "denied consumes nothing" `Quick
            test_budget_denied_consumes_nothing;
          Alcotest.test_case "engine-level conservation" `Quick
            test_engine_budget_conservation;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "attempt identities" `Quick
            test_engine_attempt_accounting;
          Alcotest.test_case "cache identities" `Quick test_engine_cache_accounting;
          Alcotest.test_case "no loss, one attempt" `Quick
            test_engine_no_loss_single_attempt;
          Alcotest.test_case "alternating labels stay exact" `Quick
            test_engine_alternating_labels;
        ] );
      ( "oracle-mode",
        [
          Alcotest.test_case "default engine = matrix" `Quick
            test_default_engine_equals_oracle;
          Alcotest.test_case "online engine = online matrix" `Quick
            test_online_engine_equals_matrix;
        ] );
      ( "time",
        [
          Alcotest.test_case "clock tracks probe cost" `Quick
            test_clock_tracks_probe_cost;
          Alcotest.test_case "jitter band" `Quick test_jitter_band;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_delay_schedule;
          Alcotest.test_case "adaptive budget bounds" `Quick
            test_adaptive_retry_budget_bounds;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "zero-fault profile = oracle on all protocols"
            `Quick test_zero_fault_profile_equals_oracle_protocols;
          Alcotest.test_case "uniform profile = global model" `Quick
            test_uniform_profile_matches_global_model;
          Alcotest.test_case "per-link estimator converges" `Quick
            test_per_link_estimate_converges;
          prop_loss_estimator_matches_model;
          Alcotest.test_case "profile validation names the link" `Quick
            test_profile_validation_names_link;
        ] );
      ( "validation",
        [ Alcotest.test_case "config validation" `Quick test_config_validation ] );
      ("churn", [ prop_churn_matches_scan; prop_engine_outage_mirrors_churn ]);
      ( "dynamics",
        [
          Alcotest.test_case "zero dynamics replays static profile" `Quick
            test_zero_dynamics_replays_static;
          Alcotest.test_case "route flap path independent" `Quick
            test_route_flap_path_independent;
          Alcotest.test_case "repair inert without churn" `Quick
            test_repair_inert_without_churn;
        ] );
    ]
