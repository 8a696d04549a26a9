(* Streaming and batch statistics used by every benchmark harness.

   The streaming accumulator uses Welford's algorithm so variance stays
   numerically stable over millions of samples. *)

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let clear t =
  t.n <- 0;
  t.mean <- 0.;
  t.m2 <- 0.;
  t.min <- infinity;
  t.max <- neg_infinity

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.n

let mean t = if t.n = 0 then 0. else t.mean

let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min_value t = if t.n = 0 then 0. else t.min

let max_value t = if t.n = 0 then 0. else t.max

(* Relative standard deviation (coefficient of variation); the paper reports
   all micro-benchmarks with stddev below 1% of the mean.  The magnitude
   of the mean is the conventional denominator: delta-style series can
   have a negative mean, and a negative "relative stddev" would compare
   wrong against any threshold. *)
let rel_stddev t =
  if mean t = 0. then 0. else stddev t /. Float.abs (mean t)

type summary = {
  s_count : int;
  s_mean : float;
  s_stddev : float;
  s_min : float;
  s_max : float;
}

let summary t =
  {
    s_count = t.n;
    s_mean = mean t;
    s_stddev = stddev t;
    s_min = min_value t;
    s_max = max_value t;
  }

(* Batch percentile over a copy of the samples (nearest-rank). *)
let percentile samples p =
  if Array.length samples = 0 then 0.
  else begin
    let sorted = Array.copy samples in
    (* Float.compare, not polymorphic compare: no boxed-generic dispatch
       per comparison on the sweep hot path, and NaN ordering is
       well-defined (a total order with NaN smallest) instead of
       structural. *)
    Array.sort Float.compare sorted;
    let n = Array.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    sorted.(rank - 1)
  end
