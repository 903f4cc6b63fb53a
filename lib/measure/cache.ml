(* TTL'd RTT cache with optional capacity-bounded LRU eviction, as a
   flat open-addressing table (the layout of [Fault]'s loss table).

   Entries live in a dense pool of flat arrays indexed by entry id
   [0 .. len-1]: [keys.(id)] is the packed pair, and [vals.(2 * id)] /
   [vals.(2 * id + 1)] its value and measured-at time, so a lookup
   reads unboxed floats and allocates nothing.  The index is an [int
   array] of [key; id] pairs per slot, probed linearly from [hash_key];
   a probe compares keys inside the index, so a hit costs one index
   line and one value line.  Deleting (a stale drop or an LRU eviction)
   shifts the rest of the probe run back over the hole, so no
   tombstones pile up, and moves the pool's last entry into the freed
   id, so the pool stays dense.

   Recency is only observed through evictions, so the LRU links —
   [prev]/[next] arrays of entry ids, most recent at [head] — exist
   only when a capacity is set; an unbounded cache never allocates or
   updates them.  Pairs are packed into one int key
   ([min lsl 31 lor max]), so lookups build no tuple. *)

(* Xor-shift-multiply mix of the 63-bit key (SplitMix64's finalizer
   with its multipliers cut to OCaml's int width), so every key bit
   reaches the low bits the table indexes by. *)
let[@inline] hash_key k =
  let z = (k lxor (k lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  (z lxor (z lsr 31)) land max_int

(* Packed keys are never negative, so -1 marks a free index slot and
   the end of an LRU list. *)
let empty = -1
let nil = -1
let initial_slots = 64

type t = {
  ttl : float;
  capacity : int option;
  bounded : bool;  (* [capacity <> None]: the LRU links are live *)
  (* [2 * slot] the slot's key ([empty] when free), [2 * slot + 1]
     its entry id; the slot count is a power of two. *)
  mutable index : int array;
  mutable keys : int array;
  mutable vals : float array;
  mutable len : int;
  (* LRU links by entry id; [[||]] when there is no capacity. *)
  mutable prev : int array;  (* toward [head] (more recent) *)
  mutable next : int array;  (* toward [tail] (less recent) *)
  mutable head : int;
  mutable tail : int;
  mutable evictions : int;
}

let create ?capacity ~ttl () =
  if Float.is_nan ttl || not (ttl > 0.) then
    invalid_arg (Printf.sprintf "Cache.create: ttl must be positive (got %g)" ttl);
  (match capacity with
  | Some c when c < 1 ->
    invalid_arg
      (Printf.sprintf "Cache.create: capacity must be >= 1 (got %d)" c)
  | _ -> ());
  let bounded = capacity <> None in
  let lru n = if bounded then Array.make n nil else [||] in
  {
    ttl;
    capacity;
    bounded;
    index = Array.make (2 * initial_slots) empty;
    keys = Array.make initial_slots empty;
    vals = Array.make (2 * initial_slots) 0.;
    len = 0;
    prev = lru initial_slots;
    next = lru initial_slots;
    head = nil;
    tail = nil;
    evictions = 0;
  }

let ttl t = t.ttl
let capacity t = t.capacity
let evictions t = t.evictions
let length t = t.len

type lookup = Hit of float | Stale | Miss

(* Unordered pair packed into one int; node indices are array indices,
   well under the 2^31 this is unique up to. *)
let key i j = if i < j then (i lsl 31) lor j else (j lsl 31) lor i

let hash_pair i j = hash_key (key i j)

let code_hit = 0
let code_stale = 1
let code_miss = 2

(* The slot holding [k], or the free slot that ends its probe run. *)
let rec probe index mask k s =
  let k' = index.(2 * s) in
  if k' = k || k' = empty then s else probe index mask k ((s + 1) land mask)

let[@inline] slot_of index k =
  let mask = (Array.length index / 2) - 1 in
  probe index mask k (hash_key k land mask)

(* LRU list maintenance; only called when [t.prev] is allocated. *)
let unlink t id =
  let p = t.prev.(id) and n = t.next.(id) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_front t id =
  t.prev.(id) <- nil;
  t.next.(id) <- t.head;
  if t.head = nil then t.tail <- id else t.prev.(t.head) <- id;
  t.head <- id

let[@inline] touch t id =
  if t.bounded && t.head <> id then begin
    unlink t id;
    push_front t id
  end

(* Empty slot [hole] and pull later members of its probe run back over
   it: an entry at [s] whose home slot is not cyclically inside
   [(hole, s]] would become unreachable past a free slot, so it moves
   into the hole, which moves on to [s]. *)
let rec shift_back index mask hole s =
  let s = (s + 1) land mask in
  let k = index.(2 * s) in
  if k = empty then index.(2 * hole) <- empty
  else begin
    let home = hash_key k land mask in
    if (s - home) land mask >= (s - hole) land mask then begin
      index.(2 * hole) <- k;
      index.((2 * hole) + 1) <- index.((2 * s) + 1);
      shift_back index mask s s
    end
    else shift_back index mask hole s
  end

(* Remove the entry in index slot [s]: close the index hole, then move
   the pool's last entry into the freed id (fixing its index slot and
   LRU neighbours) so ids stay dense. *)
let delete t s =
  let index = t.index in
  let mask = (Array.length index / 2) - 1 in
  let id = index.((2 * s) + 1) in
  shift_back index mask s s;
  if t.bounded then unlink t id;
  let last = t.len - 1 in
  if id <> last then begin
    let k = t.keys.(last) in
    t.keys.(id) <- k;
    t.vals.(2 * id) <- t.vals.(2 * last);
    t.vals.((2 * id) + 1) <- t.vals.((2 * last) + 1);
    index.((2 * slot_of index k) + 1) <- id;
    if t.bounded then begin
      let p = t.prev.(last) and n = t.next.(last) in
      t.prev.(id) <- p;
      t.next.(id) <- n;
      if p = nil then t.head <- id else t.next.(p) <- id;
      if n = nil then t.tail <- id else t.prev.(n) <- id
    end
  end;
  t.len <- last

let find_code t ~now ~into i j =
  let s = slot_of t.index (key i j) in
  let id = t.index.((2 * s) + 1) in
  if t.index.(2 * s) = empty then code_miss
  else if now -. t.vals.((2 * id) + 1) <= t.ttl then begin
    touch t id;
    into.(0) <- t.vals.(2 * id);
    code_hit
  end
  else begin
    delete t s;
    code_stale
  end

let find t ~now i j =
  let buf = [| nan |] in
  let c = find_code t ~now ~into:buf i j in
  if c = code_hit then Hit buf.(0) else if c = code_stale then Stale else Miss

let extend a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Double the pool and rebuild the index from it; entry ids and the
   LRU links keep their meaning. *)
let grow t =
  let slots = 2 * Array.length t.keys in
  t.keys <- extend t.keys slots empty;
  t.vals <- extend t.vals (2 * slots) 0.;
  if t.bounded then begin
    t.prev <- extend t.prev slots nil;
    t.next <- extend t.next slots nil
  end;
  let index = Array.make (2 * slots) empty in
  for id = 0 to t.len - 1 do
    let k = t.keys.(id) in
    let s = slot_of index k in
    index.(2 * s) <- k;
    index.((2 * s) + 1) <- id
  done;
  t.index <- index

let store t ~now i j value =
  if Float.is_nan value then 0
  else begin
    let k = key i j in
    let s = slot_of t.index k in
    if t.index.(2 * s) = k then begin
      let id = t.index.((2 * s) + 1) in
      t.vals.(2 * id) <- value;
      t.vals.((2 * id) + 1) <- now;
      touch t id;
      0
    end
    else begin
      (* Keep the index at most 3/4 full, as [Fault]'s table does; the
         pool is as long as the index has slots. *)
      let s =
        if 4 * (t.len + 1) > 3 * Array.length t.keys then begin
          grow t;
          slot_of t.index k
        end
        else s
      in
      let id = t.len in
      t.len <- id + 1;
      t.keys.(id) <- k;
      t.vals.(2 * id) <- value;
      t.vals.((2 * id) + 1) <- now;
      t.index.(2 * s) <- k;
      t.index.((2 * s) + 1) <- id;
      match t.capacity with
      | None -> 0
      | Some cap ->
        push_front t id;
        if t.len > cap then begin
          let lru = t.tail in
          delete t (slot_of t.index t.keys.(lru));
          t.evictions <- t.evictions + 1;
          1
        end
        else 0
    end
  end

let clear t =
  Array.fill t.index 0 (Array.length t.index) empty;
  t.len <- 0;
  t.head <- nil;
  t.tail <- nil
