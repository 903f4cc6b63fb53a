type t = {
  mutable requests : int;
  mutable issued : int;
  mutable lost : int;
  mutable retried : int;
  mutable failed : int;
  mutable denied : int;
  mutable down : int;
  mutable unmeasured : int;
  mutable hits : int;
  mutable stale : int;
  mutable misses : int;
  mutable evicted : int;
  mutable probe_ms : float;
  per_label : (string, int ref) Hashtbl.t;
  mutable last_label : string;
  mutable last_cell : int ref;
}

(* A string no caller can hold, so the memo of a fresh or reset record
   never matches; [no_cell] is then never incremented. *)
let no_label = String.make 1 '\000'
let no_cell = ref 0

let create () =
  {
    requests = 0;
    issued = 0;
    lost = 0;
    retried = 0;
    failed = 0;
    denied = 0;
    down = 0;
    unmeasured = 0;
    hits = 0;
    stale = 0;
    misses = 0;
    evicted = 0;
    probe_ms = 0.;
    per_label = Hashtbl.create 8;
    last_label = no_label;
    last_cell = no_cell;
  }

let reset t =
  t.requests <- 0;
  t.issued <- 0;
  t.lost <- 0;
  t.retried <- 0;
  t.failed <- 0;
  t.denied <- 0;
  t.down <- 0;
  t.unmeasured <- 0;
  t.hits <- 0;
  t.stale <- 0;
  t.misses <- 0;
  t.evicted <- 0;
  t.probe_ms <- 0.;
  Hashtbl.reset t.per_label;
  (* The memoized cell left the table with the reset. *)
  t.last_label <- no_label;
  t.last_cell <- no_cell

let snapshot t =
  let s = create () in
  s.requests <- t.requests;
  s.issued <- t.issued;
  s.lost <- t.lost;
  s.retried <- t.retried;
  s.failed <- t.failed;
  s.denied <- t.denied;
  s.down <- t.down;
  s.unmeasured <- t.unmeasured;
  s.hits <- t.hits;
  s.stale <- t.stale;
  s.misses <- t.misses;
  s.evicted <- t.evicted;
  s.probe_ms <- t.probe_ms;
  Hashtbl.iter (fun k v -> Hashtbl.replace s.per_label k (ref !v)) t.per_label;
  s

let label_count t label =
  match Hashtbl.find_opt t.per_label label with Some c -> !c | None -> 0

let labels t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.per_label []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Callers pass the same label string over and over, so the last
   label's cell is memoized and matched by physical equality — sound
   because strings are immutable — before hashing the label. *)
let record_issue t label =
  t.issued <- t.issued + 1;
  match label with
  | None -> ()
  | Some l ->
    if l == t.last_label then incr t.last_cell
    else begin
      let c =
        match Hashtbl.find t.per_label l with
        | c -> c
        | exception Not_found ->
          let c = ref 0 in
          Hashtbl.add t.per_label l c;
          c
      in
      incr c;
      t.last_label <- l;
      t.last_cell <- c
    end

let pp fmt t =
  Format.fprintf fmt
    "requests=%d issued=%d lost=%d retried=%d failed=%d denied=%d down=%d \
     unmeasured=%d cache hit/stale/miss=%d/%d/%d evicted=%d probe_ms=%.0f"
    t.requests t.issued t.lost t.retried t.failed t.denied t.down t.unmeasured
    t.hits t.stale t.misses t.evicted t.probe_ms;
  match labels t with
  | [] -> ()
  | ls ->
    Format.fprintf fmt " |";
    List.iter (fun (l, c) -> Format.fprintf fmt " %s=%d" l c) ls
