(** Binary min-heap keyed by (time, insertion order).

    Events scheduled for the same instant pop in insertion order, which
    keeps the discrete-event engine deterministic. *)

type 'a t

(** An empty heap; [capacity] pre-sizes the backing arrays (purely a
    regrowth-avoidance hint, invisible to every observation). *)
val create : ?capacity:int -> unit -> 'a t

(** Number of queued entries. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** Queue [payload] at [time].  Raises [Failure] beyond 2{^24} queued
    entries. *)
val push : 'a t -> time:float -> 'a -> unit

(** Remove and return the earliest entry, if any. *)
val pop : 'a t -> (float * 'a) option

(** Time of the earliest entry without removing it. *)
val peek_time : 'a t -> float option

(** Time of the earliest entry; raises [Invalid_argument] when empty.
    Allocation-free counterpart of {!peek_time} for the event loop. *)
val top_time : 'a t -> float

(** Remove and return the earliest payload; raises [Invalid_argument]
    when empty.  Allocation-free counterpart of {!pop}; the vacated slot
    is nulled so the heap retains no popped payload. *)
val pop_min : 'a t -> 'a
