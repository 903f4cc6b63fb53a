(* TTL'd RTT cache with optional capacity-bounded LRU eviction.
   Recency is an intrusive circular doubly-linked list over the entries
   threaded through a sentinel (sentinel.next = most recently used,
   sentinel.prev = least recently used), so relinking is O(1) and —
   unlike option-linked lists — relinking an entry on a hit allocates
   nothing.  Pairs are packed into one int key ([min lsl 31 lor max]),
   so lookups build no tuple.  The table hashes that key with
   [hash_key], not the polymorphic [Hashtbl.hash], which folds a 64-bit
   int to 32 bits as [d lsr 32 lxor d] and so lands [min] on top of
   [max] (1,021 distinct hashes for the 79,800 pairs of 400 nodes). *)

(* Xor-shift-multiply mix of the 63-bit key (SplitMix64's finalizer
   with its multipliers cut to OCaml's int width), so every key bit
   reaches the low bits the table indexes by. *)
let[@inline] hash_key k =
  let z = (k lxor (k lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  (z lxor (z lsr 31)) land max_int

module Table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash_key
end)

type entry = {
  key : int;
  mutable value : float;
  mutable measured : float;
  mutable prev : entry;  (* toward the head (more recent) *)
  mutable next : entry;  (* toward the tail (least recent) *)
}

type t = {
  ttl : float;
  capacity : int option;
  entries : entry Table.t;
  sentinel : entry;
  mutable evictions : int;
  mutable absent : int;
      (* a key the last lookup proved missing, or -1: until it is
         stored, [store] can insert it without searching first *)
}

let make_sentinel () =
  let rec s = { key = min_int; value = nan; measured = nan; prev = s; next = s } in
  s

let create ?capacity ~ttl () =
  if Float.is_nan ttl || not (ttl > 0.) then
    invalid_arg (Printf.sprintf "Cache.create: ttl must be positive (got %g)" ttl);
  (match capacity with
  | Some c when c < 1 ->
    invalid_arg
      (Printf.sprintf "Cache.create: capacity must be >= 1 (got %d)" c)
  | _ -> ());
  {
    ttl;
    capacity;
    entries = Table.create 256;
    sentinel = make_sentinel ();
    evictions = 0;
    absent = -1;
  }

let ttl t = t.ttl
let capacity t = t.capacity
let evictions t = t.evictions

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  let s = t.sentinel in
  e.prev <- s;
  e.next <- s.next;
  s.next.prev <- e;
  s.next <- e

let touch t e =
  if t.sentinel.next != e then begin
    unlink e;
    push_front t e
  end

let drop t e =
  unlink e;
  Table.remove t.entries e.key

type lookup = Hit of float | Stale | Miss

(* Unordered pair packed into one int; node indices are array indices,
   well under the 2^31 this is unique up to. *)
let key i j = if i < j then (i lsl 31) lor j else (j lsl 31) lor i

let hash_pair i j = hash_key (key i j)

let code_hit = 0
let code_stale = 1
let code_miss = 2

let find_code t ~now ~into i j =
  let k = key i j in
  match Table.find t.entries k with
  | e ->
    if now -. e.measured <= t.ttl then begin
      touch t e;
      into.(0) <- e.value;
      code_hit
    end
    else begin
      drop t e;
      t.absent <- k;
      code_stale
    end
  | exception Not_found ->
    t.absent <- k;
    code_miss

let find t ~now i j =
  let buf = [| nan |] in
  let c = find_code t ~now ~into:buf i j in
  if c = code_hit then Hit buf.(0) else if c = code_stale then Stale else Miss

let store t ~now i j value =
  if Float.is_nan value then 0
  else begin
    let k = key i j in
    match if k = t.absent then None else Table.find_opt t.entries k with
    | Some e ->
      e.value <- value;
      e.measured <- now;
      touch t e;
      0
    | None ->
      (* [k] is absent here, so [add] (no bucket search) is [replace]. *)
      t.absent <- -1;
      let s = t.sentinel in
      let e = { key = k; value; measured = now; prev = s; next = s } in
      Table.add t.entries k e;
      push_front t e;
      (match t.capacity with
      | Some cap when Table.length t.entries > cap ->
        let lru = s.prev in
        if lru != s then begin
          drop t lru;
          t.evictions <- t.evictions + 1;
          1
        end
        else 0
      | _ -> 0)
  end

let length t = Table.length t.entries

let clear t =
  Table.reset t.entries;
  t.absent <- -1;
  let s = t.sentinel in
  s.next <- s;
  s.prev <- s
