(** Min-priority event queue keyed by (time, insertion order).

    Events scheduled for the same instant pop in insertion order, which
    keeps the discrete-event engine deterministic.

    Two tiers split at a time: a small sorted ring holds the entries
    before the split and a binary heap the rest, so only far-future
    entries pay for the heap (DESIGN.md Sec. 7).  The pop order is that
    of a single heap. *)

type 'a t

(** An empty queue. *)
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
    is nulled so the queue retains no popped payload. *)
val pop_min : 'a t -> 'a

(** Entries in the near tier, a part of {!length}. *)
val near_length : 'a t -> int

(** Pushes so far. *)
val pushes : 'a t -> int

(** Entries sent to the far-tier heap so far, by a push at or after the
    split or by a spill of the near tier.  Deterministic for a given
    push/pop stream: a design guard, not a timing. *)
val far_pushes : 'a t -> int
