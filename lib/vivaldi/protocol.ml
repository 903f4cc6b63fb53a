module Rng = Tivaware_util.Rng
module Sim = Tivaware_eventsim.Sim
module Matrix = Tivaware_delay_space.Matrix
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault

type config = {
  probe_period : float;
  jitter : float;
}

let default_config = { probe_period = 1.; jitter = 0.1 }

type stats = {
  probes_sent : int;
  probes_completed : int;
}

let run ?(config = default_config) sim system ~duration =
  assert (config.probe_period > 0. && config.jitter >= 0. && config.jitter < 1.);
  let n = System.size system in
  let engine = System.engine system in
  let rng = System.rng system in
  let deadline = Sim.now sim +. duration in
  let sent = ref 0 and completed = ref 0 in
  let next_gap () =
    let j = config.jitter *. config.probe_period in
    Float.max 1e-3 (config.probe_period +. Rng.uniform rng (-.j) j)
  in
  let rec probe_loop node () =
    if Sim.now sim < deadline then begin
      Engine.advance_to engine (Sim.now sim);
      let neighbors = System.neighbors system node in
      if Array.length neighbors > 0 then begin
        let peer = Rng.choice rng neighbors in
        match Engine.probe ~label:"vivaldi" engine node peer with
        | Engine.Rtt rtt | Engine.Cached rtt ->
          incr sent;
          (* The response arrives one RTT later (delays are in ms);
             the jittered sample that timed the response is the one
             applied to the coordinate. *)
          Sim.schedule_after sim (rtt /. 1000.) (fun () ->
              if Sim.now sim <= deadline then begin
                System.observe_rtt system node peer rtt;
                incr completed
              end)
        | Engine.Lost | Engine.Down ->
          (* Sent on the wire, no response ever comes back. *)
          incr sent
        | Engine.Denied | Engine.Unmeasured -> ()
      end;
      Sim.schedule_after sim (next_gap ()) (probe_loop node)
    end
  in
  for node = 0 to n - 1 do
    (* Desynchronized start within the first period. *)
    Sim.schedule_after sim (Rng.float rng config.probe_period) (probe_loop node)
  done;
  Sim.run ~until:deadline sim;
  { probes_sent = !sent; probes_completed = !completed }

type churn = {
  mean_uptime : float;
  mean_downtime : float;
}

let default_churn = { mean_uptime = 60.; mean_downtime = 10. }

type churn_stats = {
  base : stats;
  failures : int;
  rejoins : int;
  probes_lost : int;
}

let alive_fraction_hint c = c.mean_uptime /. (c.mean_uptime +. c.mean_downtime)

let run_with_churn ?(config = default_config) ?(churn = default_churn) sim
    system ~duration =
  assert (churn.mean_uptime > 0. && churn.mean_downtime > 0.);
  let n = System.size system in
  let engine = System.engine system in
  (* The engine's churn plane rewrites only the nodes it toggles, so a
     second writer of the same outage state would silently fight it. *)
  if Option.is_some (Engine.churn engine) then
    invalid_arg
      "Protocol.run_with_churn: the system's engine already has a churn \
       plane; drive churn from one of the two, not both";
  let rng = System.rng system in
  let deadline = Sim.now sim +. duration in
  let alive = Array.make n true in
  let sent = ref 0 and completed = ref 0 in
  let failures = ref 0 and rejoins = ref 0 and lost = ref 0 in
  let next_gap () =
    let j = config.jitter *. config.probe_period in
    Float.max 1e-3 (config.probe_period +. Rng.uniform rng (-.j) j)
  in
  (* Up/down life cycle per node.  Both transitions are mirrored into
     the engine's fault injector: a down node must answer no probes,
     and — just as important — a revived node must answer them again,
     otherwise the measurement plane slowly silences the whole
     population while the protocol believes its peers rejoined. *)
  let rec go_down node () =
    if Sim.now sim < deadline then begin
      alive.(node) <- false;
      Fault.set_down (Engine.fault engine) node true;
      incr failures;
      Sim.schedule_after sim
        (Rng.exponential rng ~rate:(1. /. churn.mean_downtime))
        (come_up node)
    end
  and come_up node () =
    if Sim.now sim < deadline then begin
      alive.(node) <- true;
      Fault.set_down (Engine.fault engine) node false;
      incr rejoins;
      (* State lost while down: restart from a fresh coordinate. *)
      System.reset_node system node;
      Sim.schedule_after sim
        (Rng.exponential rng ~rate:(1. /. churn.mean_uptime))
        (go_down node)
    end
  in
  let rec probe_loop node () =
    if Sim.now sim < deadline then begin
      Engine.advance_to engine (Sim.now sim);
      if alive.(node) then begin
        let neighbors = System.neighbors system node in
        if Array.length neighbors > 0 then begin
          let peer = Rng.choice rng neighbors in
          match Engine.probe ~label:"vivaldi" engine node peer with
          | Engine.Rtt rtt | Engine.Cached rtt ->
            incr sent;
            if not alive.(peer) then incr lost
            else
              Sim.schedule_after sim (rtt /. 1000.) (fun () ->
                  (* Both ends must still be up when the response lands. *)
                  if Sim.now sim <= deadline && alive.(node) && alive.(peer)
                  then begin
                    System.observe_rtt system node peer rtt;
                    incr completed
                  end
                  else incr lost)
          | Engine.Lost | Engine.Down ->
            (* Dropped on the wire — by loss, or because the peer's
               outage is mirrored into the injector. *)
            incr sent;
            incr lost
          | Engine.Denied | Engine.Unmeasured -> ()
        end
      end;
      Sim.schedule_after sim (next_gap ()) (probe_loop node)
    end
  in
  for node = 0 to n - 1 do
    Sim.schedule_after sim (Rng.float rng config.probe_period) (probe_loop node);
    Sim.schedule_after sim
      (Rng.exponential rng ~rate:(1. /. churn.mean_uptime))
      (go_down node)
  done;
  Sim.run ~until:deadline sim;
  {
    base = { probes_sent = !sent; probes_completed = !completed };
    failures = !failures;
    rejoins = !rejoins;
    probes_lost = !lost;
  }
