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
   order, which the open-arrival sweeps rely on for --jobs invariance.
   The digest folds only integer state (bucket counts), never float
   accumulators. *)

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

(* Position of the highest set bit of a positive int. *)
let msb n =
  let k = ref 0 and n = ref n in
  if !n lsr 32 <> 0 then begin
    k := !k + 32;
    n := !n lsr 32
  end;
  if !n land 0xFFFF0000 <> 0 then begin
    k := !k + 16;
    n := !n lsr 16
  end;
  if !n land 0xFF00 <> 0 then begin
    k := !k + 8;
    n := !n lsr 8
  end;
  if !n land 0xF0 <> 0 then begin
    k := !k + 4;
    n := !n lsr 4
  end;
  if !n land 0xC <> 0 then begin
    k := !k + 2;
    n := !n lsr 2
  end;
  if !n land 0x2 <> 0 then incr k;
  !k

let bucket_of ns =
  let u = ns *. units_per_ns in
  if not (u > 0.) then 0 (* negatives, zero and NaN land in bucket 0 *)
  else if u >= clamp_units then buckets - 1
  else begin
    let n = int_of_float u in
    if n < sub_count then n
    else begin
      let k = msb n in
      let sub = (n lsr (k - sub_bits)) - sub_count in
      sub_count + (((k - sub_bits) * sub_count) + sub)
    end
  end

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

let digest t =
  let h = ref fnv_offset in
  let fold v = h := Int64.mul (Int64.logxor !h (Int64.of_int v)) fnv_prime in
  fold t.total;
  Array.iteri
    (fun b c ->
      if c > 0 then begin
        fold b;
        fold c
      end)
    t.counts;
  !h

let digest_hex t = Printf.sprintf "%016Lx" (digest t)

let pp ppf t =
  Fmt.pf ppf "hist(n=%d; mean=%.1f; p50=%.1f; p99=%.1f; p999=%.1f)" t.total
    (mean t) (percentile t 50.) (percentile t 99.) (percentile t 99.9)
