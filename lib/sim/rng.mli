(** Deterministic splitmix64 pseudo-random number generator.

    The simulator must be reproducible across runs and platforms, so all
    randomness flows through explicit-state generators seeded by the
    caller. *)

type t

val create : seed:int -> t

(** Independent copy continuing from the same state. *)
val copy : t -> t

(** Fork an independent child generator, advancing the parent by one
    draw (splitmix64's designed split).  The child's stream is
    deterministic in the parent's seed and split position but shares no
    draws with the parent's continuation. *)
val split : t -> t

val next_int64 : t -> int64

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform integer in [0, bound); raises [Invalid_argument] when
    [bound <= 0].  Carries the classic `r mod bound` modulo bias.  No
    pinned digest consumes it; it is kept verbatim because the
    repository benchmark's [dipc_calls] argument draws do.  New code
    should prefer {!int_unbiased}. *)
val int : t -> int -> int

(** Uniform integer in [0, bound) via rejection sampling — no modulo
    bias.  Consumes a variable number of draws, so it is not
    stream-compatible with {!int}; raises [Invalid_argument] when
    [bound <= 0]. *)
val int_unbiased : t -> int -> int

val bool : t -> bool

(** Exponentially distributed value with the given mean. *)
val exponential : t -> mean:float -> float

(** Uniform float in [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** Heavy-tailed positive value around [mean] (bounded Pareto shape);
    used for disk service times. *)
val heavy_tail : t -> mean:float -> float
