(** Probe accounting.

    One mutable record per {!Engine}; every counter is monotone so
    callers can diff snapshots around a phase.  [requests] counts calls
    into the engine; [issued] counts attempts actually sent to the
    oracle (retransmissions included), so [issued - requests] bounds the
    retry overhead and [hits / requests] is the service-mode cache
    efficiency (IDMS-style).  Per-label counters attribute issued
    probes to protocols ([vivaldi], [meridian], [alert], ...). *)

type t = {
  mutable requests : int;  (** calls to {!Engine.probe} / {!Engine.rtt} *)
  mutable issued : int;  (** attempts sent to the oracle, retries included *)
  mutable lost : int;  (** attempts dropped by injected loss *)
  mutable retried : int;  (** extra attempts after a loss *)
  mutable failed : int;  (** requests that exhausted every retry *)
  mutable denied : int;  (** requests refused by the probe budget *)
  mutable down : int;  (** requests to/from a node in outage *)
  mutable unmeasured : int;  (** oracle had no measurement for the pair *)
  mutable hits : int;  (** fresh cache hits (no probe issued) *)
  mutable stale : int;  (** cache entries found expired (re-probed) *)
  mutable misses : int;  (** cache lookups with no entry *)
  mutable evicted : int;  (** cache entries evicted by the LRU capacity bound *)
  mutable probe_ms : float;
      (** total measurement time charged on the issuing path (RTTs of
          delivered attempts, timeouts of lost ones, backoff delays) *)
  per_label : (string, int ref) Hashtbl.t;
      (** issued probes per protocol; one counter cell per label, so
          recording a probe is a single lookup *)
  mutable last_label : string;
  mutable last_cell : int ref;
      (** {!record_issue}'s memo: the cell of the last label it saw,
          matched by physical equality, so a run of probes under one
          label string hashes it once.  {!reset} clears it. *)
}

val create : unit -> t
val reset : t -> unit

val snapshot : t -> t
(** An independent copy (for diffing around a phase): the per-label
    counter cells are copied, not shared. *)

val label_count : t -> string -> int
(** Issued probes attributed to a label; 0 when never seen. *)

val labels : t -> (string * int) list
(** All per-label counters, sorted by label. *)

val record_issue : t -> string option -> unit
(** One attempt sent to the oracle, attributed to the label. *)

val pp : Format.formatter -> t -> unit
(** One-line summary, e.g.
    [requests=900 issued=842 lost=80 retried=60 failed=20 denied=12
     down=0 unmeasured=4 cache hit/stale/miss=42/3/858 evicted=12
     probe_ms=61520 | meridian=842]. *)
