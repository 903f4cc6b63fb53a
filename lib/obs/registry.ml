type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type t = {
  table : (string, metric) Hashtbl.t;
  trace : Trace.t;
  (* Guards the table's *structure* (find-or-create, import, traversal)
     against concurrent registration from several domains.  It does NOT
     make the instruments atomic — see the domain-safety rule in the
     interface: one registry per domain, merged with [Merge] at the
     end. *)
  lock : Mutex.t;
}

let create ?trace_capacity () =
  {
    table = Hashtbl.create 64;
    trace = Trace.create ?capacity:trace_capacity ();
    lock = Mutex.create ();
  }

let series_name name labels =
  match labels with
  | [] -> name
  | labels ->
    let sorted =
      List.sort (fun (a, _) (b, _) -> String.compare a b) labels
    in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) sorted)
    ^ "}"

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Locks by hand rather than through [with_lock], and [make] takes its
   argument instead of closing over it, so a lookup of an existing
   series allocates no closure — only its key when it has labels. *)
let find_or_create t name labels ~make arg =
  let key = series_name name labels in
  Mutex.lock t.lock;
  match Hashtbl.find t.table key with
  | m ->
    Mutex.unlock t.lock;
    m
  | exception Not_found -> (
    match make arg with
    | m ->
      Hashtbl.replace t.table key m;
      Mutex.unlock t.lock;
      m
    | exception e ->
      Mutex.unlock t.lock;
      raise e)

let mismatch key existing wanted =
  invalid_arg
    (Printf.sprintf "Registry: %s is already registered as a %s, not a %s" key
       (kind_name existing) wanted)

let new_counter () = Counter (Counter.create ())
let new_gauge () = Gauge (Gauge.create ())
let new_histogram edges = Histogram (Histogram.create ~edges)

let counter t ?(labels = []) name =
  match find_or_create t name labels ~make:new_counter () with
  | Counter c -> c
  | other -> mismatch (series_name name labels) other "counter"

let gauge t ?(labels = []) name =
  match find_or_create t name labels ~make:new_gauge () with
  | Gauge g -> g
  | other -> mismatch (series_name name labels) other "gauge"

let histogram t ?(labels = []) ~edges name =
  match find_or_create t name labels ~make:new_histogram edges with
  | Histogram h ->
    if not (Histogram.has_edges h edges) then
      invalid_arg
        (Printf.sprintf
           "Registry: histogram %s is already registered with different bucket \
            edges"
           (series_name name labels));
    h
  | other -> mismatch (series_name name labels) other "histogram"

let import t key metric =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> Hashtbl.replace t.table key metric
      | Some existing ->
        if kind_name existing <> kind_name metric then
          mismatch key existing (kind_name metric)
        else
          invalid_arg
            (Printf.sprintf "Registry.import: %s is already registered" key))

let trace t = t.trace
let trace_event t ~time ~label message = Trace.record t.trace ~time ~label message

let metrics t =
  with_lock t (fun () -> Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
