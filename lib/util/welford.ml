(* All fields are floats, so the record is stored flat and [add]'s five
   stores are unboxed; a mutable int count beside them would make every
   float store allocate.  The count is an exactly integral float (exact
   up to 2^53 samples), so [float_of_int] of an int count and the count
   itself are the same value in every formula below. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0.; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = int_of_float t.n
let mean t = if t.n = 0. then 0. else t.mean
let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
let stddev t = sqrt (variance t)

let min t =
  if t.n = 0. then invalid_arg "Welford.min: no samples";
  t.min

let max t =
  if t.n = 0. then invalid_arg "Welford.max: no samples";
  t.max

let merge a b =
  if a.n = 0. then { b with n = b.n }
  else if b.n = 0. then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean;
      m2;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
    }
  end
