(* HDR-style latency histogram: log2 major buckets, each split into 128
   linear sub-buckets.

   Samples are recorded in fixed-point units of 1/128 ns.  The first 128
   indices are an exact linear region (one unit wide); above it, every
   power-of-two range [2^k, 2^(k+1)) units is split into 128 equal
   sub-buckets, so the bucket width is always <= 1/128 of the bucket's
   lower bound.  Reported percentiles therefore carry at most ~0.79%
   relative error for any sample >= 1 ns, across the full range the
   benchmarks cover (1 ns .. ~275 s).

   The representation is a plain counts array plus integer totals, so
   [merge] is exact bucket-wise addition: associative, commutative, and
   deterministic — per-shard histograms combine to the same state in any
   order.  The open-arrival sweeps' --jobs invariance does not rest on
   it: each cell runs to completion in one histogram, sharing no state
   with any other (DESIGN.md Sec. 10).  The digest folds only integer
   state (bucket counts), never float accumulators. *)

let sub_bits = 7

let sub_count = 1 lsl sub_bits (* 128 linear sub-buckets per major *)

(* Highest major: units in [2^44, 2^45) — 2^38 ns, ~275 simulated
   seconds.  Larger samples clamp into the last bucket. *)
let top_major = 44

let buckets = sub_count * (top_major - sub_bits + 2)

let units_per_ns = float_of_int sub_count

(* Units at or above this value would overflow the index math; clamp. *)
let clamp_units = Float.ldexp 1. (top_major + 1)

type t = {
  counts : int array;
  mutable total : int;
  sum_ns : floatarray;
      (* for [mean] only; never digested.  A 1-slot [floatarray]: a
         [mutable float] field in this mixed record would box a fresh
         float on every [add]. *)
}

let create () =
  { counts = Array.make buckets 0; total = 0; sum_ns = Float.Array.make 1 0. }

let sum_ns t = Float.Array.unsafe_get t.sum_ns 0

(* For u in [128, 2^45) the IEEE-754 double of u is its bucket: the
   biased exponent is k + 1023, where 2^k <= u < 2^(k+1) (k >= 7, so
   the top 7 mantissa bits are all integer bits of u, i.e. the
   sub-bucket), and the bits above the mantissa's top 7 read as
   (k + 1023) * 128 + sub.  Subtracting 1029 * 128 leaves
   128 + (k - 7) * 128 + sub, with no data-dependent branch. *)
let bucket_of ns =
  let u = ns *. units_per_ns in
  if not (u > 0.) then 0 (* negatives, zero and NaN land in bucket 0 *)
  else if u >= clamp_units then buckets - 1
  else if u < float_of_int sub_count then int_of_float u
  else
    Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float u) 45)
    - (1029 * sub_count)

(* Lower bound and width of bucket [b], in units. *)
let bucket_bounds b =
  if b < sub_count then (float_of_int b, 1.)
  else begin
    let j = b - sub_count in
    let k = sub_bits + (j / sub_count) in
    let sub = j mod sub_count in
    let w = Float.ldexp 1. (k - sub_bits) in
    (Float.ldexp 1. k +. (float_of_int sub *. w), w)
  end

let add t ns =
  let b = bucket_of ns in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  Float.Array.unsafe_set t.sum_ns 0
    (sum_ns t +. if ns > 0. then ns else 0.)

let count t = t.total

let mean t = if t.total = 0 then 0. else sum_ns t /. float_of_int t.total

let merge ~into src =
  Array.iteri (fun b c -> into.counts.(b) <- into.counts.(b) + c) src.counts;
  into.total <- into.total + src.total;
  Float.Array.unsafe_set into.sum_ns 0 (sum_ns into +. sum_ns src)

(* Exact rank interpolation: the rank is clamped into [1, total] (p
   outside 0..100, or float rounding of p = 100. on large totals, must
   never fall off the end and report 0), then located by a cumulative
   walk; within the bucket the value is interpolated linearly by the
   rank's position among the bucket's samples.  The result always lies
   inside the bucket, so the <= 1% resolution bound holds for it too. *)
let percentile t p =
  if t.total = 0 then 0.
  else begin
    let rank = int_of_float (ceil (p /. 100. *. float_of_int t.total)) in
    let rank = if rank < 1 then 1 else if rank > t.total then t.total else rank in
    let acc = ref 0 and b = ref 0 in
    while !acc + t.counts.(!b) < rank do
      acc := !acc + t.counts.(!b);
      incr b
    done;
    let lo, w = bucket_bounds !b in
    let pos = float_of_int (rank - !acc) /. float_of_int t.counts.(!b) in
    (lo +. (w *. pos)) /. units_per_ns
  end

(* --- deterministic digest ---

   FNV-1a over the integer state only: total, then every non-empty
   (bucket, count) pair in index order.  Two histograms digest equally
   iff their bucket contents are identical, regardless of merge order or
   float accumulator history. *)

let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

let[@inline] fold h v = Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime

(* A loop over a local [int64 ref], which the compiler keeps unboxed: a
   closure capturing [h] would box a fresh int64 per fold. *)
let digest t =
  let h = ref (fold fnv_offset t.total) in
  let counts = t.counts in
  for b = 0 to Array.length counts - 1 do
    let c = Array.unsafe_get counts b in
    if c > 0 then h := fold (fold !h b) c
  done;
  !h

let digest_hex t = Printf.sprintf "%016Lx" (digest t)

let pp ppf t =
  Fmt.pf ppf "hist(n=%d; mean=%.1f; p50=%.1f; p99=%.1f; p999=%.1f)" t.total
    (mean t) (percentile t 50.) (percentile t 99.) (percentile t 99.9)
