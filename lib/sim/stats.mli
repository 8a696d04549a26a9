(** Streaming (Welford) and batch statistics used by the benchmark
    harnesses. *)

type t

val create : unit -> t

val clear : t -> unit

(** Add one sample. *)
val add : t -> float -> unit

val count : t -> int

val mean : t -> float

(** Unbiased sample variance (0 with fewer than two samples). *)
val variance : t -> float

val stddev : t -> float

val min_value : t -> float

val max_value : t -> float

(** Coefficient of variation: stddev / |mean| (never negative). *)
val rel_stddev : t -> float

(** Immutable snapshot of an accumulator. *)
type summary = {
  s_count : int;
  s_mean : float;
  s_stddev : float;
  s_min : float;
  s_max : float;
}

val summary : t -> summary

(** Nearest-rank percentile of a sample array ([p] in 0..100). *)
val percentile : float array -> float -> float
