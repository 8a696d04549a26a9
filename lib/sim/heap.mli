(** Binary min-heap keyed by (time, insertion order).

    Events scheduled for the same instant pop in insertion order, which
    keeps the discrete-event engine deterministic. *)

type 'a t

(** An empty heap. *)
val create : unit -> 'a t

(** Number of queued entries. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** Queue [payload] at [time].  Raises [Failure] beyond 2{^24} queued
    entries. *)
val push : 'a t -> time:float -> 'a -> unit

(** Remove and return the earliest entry, if any. *)
val pop : 'a t -> (float * 'a) option

(** Time of the earliest entry without removing it; raises
    [Invalid_argument] when empty.  Allocation-free: callers test
    {!is_empty} first instead of matching on an option. *)
val top_time : 'a t -> float

(** Remove and return the earliest payload; raises [Invalid_argument]
    when empty.  Allocation-free counterpart of {!pop}; the vacated slot
    is nulled so the heap retains no popped payload. *)
val pop_min : 'a t -> 'a
