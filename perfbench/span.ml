(* Spans recorded by the benchmark around its calls into the libraries.

   A recorder belongs to one domain (nothing is shared across domains);
   spans are kept in growable parallel arrays and written out when the
   benchmark ends.  Times are monotonic nanoseconds. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  domain : int;
  mutable n : int;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;  (* span index in this recorder, -1 = root *)
  mutable reqs : int array;  (* request (query, read) id, -1 = none *)
}

let create ~domain =
  let cap = 1024 in
  {
    domain;
    n = 0;
    names = Array.make cap "";
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    parents = Array.make cap (-1);
    reqs = Array.make cap (-1);
  }

let grow t =
  let cap = 2 * Array.length t.starts in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1);
  t.reqs <- extend t.reqs (-1)

(* [add] records a finished span, e.g. one reconstructed from a callback
   gap, or an aggregate whose duration is a sum of many short calls
   (placed at its parent's start). *)
let add t ?(req = -1) ~parent name ~start ~stop =
  if t.n = Array.length t.starts then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.parents.(i) <- parent;
  t.reqs.(i) <- req;
  t.n <- i + 1;
  i

let enter t ?req ~parent name =
  let now = now_ns () in
  add t ?req ~parent name ~start:now ~stop:now

let leave t i = t.stops.(i) <- now_ns ()

let with_span t ?req ~parent name f =
  let i = enter t ?req ~parent name in
  let r = f () in
  leave t i;
  r

let start_of t i = t.starts.(i)
let seconds ns = float_of_int ns *. 1e-9

(* ---- Aggregation over a set of recorders --------------------------- *)

(* Durations in seconds of every span with this name. *)
let durations recs name =
  let acc = ref [] in
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        if String.equal t.names.(i) name then
          acc := seconds (t.stops.(i) - t.starts.(i)) :: !acc
      done)
    recs;
  Array.of_list (List.rev !acc)

let total recs name = Array.fold_left ( +. ) 0. (durations recs name)

(* Self time: a span's duration minus the time its children cover.
   Children of one span run sequentially (the benchmark never overlaps
   calls within a domain), so their summed durations are the covered
   part. *)
let self_total recs name =
  List.fold_left
    (fun acc t ->
      let child = Array.make t.n 0 in
      for i = 0 to t.n - 1 do
        let p = t.parents.(i) in
        if p >= 0 then child.(p) <- child.(p) + (t.stops.(i) - t.starts.(i))
      done;
      let s = ref acc in
      for i = 0 to t.n - 1 do
        if String.equal t.names.(i) name then
          s := !s +. seconds (max 0 (t.stops.(i) - t.starts.(i) - child.(i)))
      done;
      !s)
    0. recs

(* One JSON object per line: a header, then every span. *)
let write path ~header recs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      output_char oc '\n';
      List.iter
        (fun t ->
          for i = 0 to t.n - 1 do
            Printf.fprintf oc
              "{\"domain\":%d,\"id\":%d,\"parent\":%d,\"req\":%d,\
               \"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
              t.domain i t.parents.(i) t.reqs.(i) t.names.(i)
              t.starts.(i) t.stops.(i)
          done)
        recs)
