(** Memory traffic cost model: copy and touch costs by cache residency,
    producing Figure 6's kinks at the L1 and L2 boundaries.  All results
    in nanoseconds. *)

(** Producer filling a buffer. *)
val write_buffer : int -> float

(** Consumer reading a buffer. *)
val read_buffer : int -> float

(** memcpy in user space (read + write traffic). *)
val user_copy : int -> float

(** Kernel-mediated cross-process copy: a user copy plus per-page
    pin/validate work. *)
val kernel_copy : int -> float
