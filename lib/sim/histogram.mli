(** HDR-style latency histogram: log2 major buckets x 128 linear
    sub-buckets, <= 1% relative resolution error for any sample of at
    least 1 ns (range 1 ns .. ~275 s; larger samples clamp into the last
    bucket, sub-ns samples are exact to 1/128 ns). *)

type t

val create : unit -> t

(** Index of the bucket a sample of [ns] nanoseconds is counted in:
    negatives, zero and NaN map to 0, samples of at least ~275 s to the
    last bucket. *)
val bucket_of : float -> int

(** Record one latency sample, in nanoseconds.  Negative and NaN
    samples land in the zero bucket. *)
val add : t -> float -> unit

val count : t -> int

(** Arithmetic mean of the recorded samples (exact, not bucketed). *)
val mean : t -> float

(** Accumulate [src]'s buckets into [into].  Bucket-wise integer
    addition: associative and commutative, so per-shard histograms
    combine deterministically in any order. *)
val merge : into:t -> t -> unit

(** Rank-interpolated percentile ([p] in 0..100; out-of-range ranks are
    clamped into [1, count], so [p >= 100.] reports the top bucket, never
    0).  The result lies within the sample's bucket: relative error is
    bounded by the 1/128 bucket resolution. *)
val percentile : t -> float -> float

(** FNV-1a digest of the integer bucket state (total + non-empty
    buckets).  Equal iff the recorded distributions are identical;
    insensitive to merge order. *)
val digest : t -> int64

(** {!digest} as 16 lowercase hex digits. *)
val digest_hex : t -> string

val pp : Format.formatter -> t -> unit
