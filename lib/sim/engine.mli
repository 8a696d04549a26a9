(** Discrete-event simulation engine.

    Simulated threads are ordinary OCaml functions run under an effect
    handler that turns blocking operations into queued
    continuations, so protocol code reads in direct style.  Continuations
    are one-shot: every suspended thread is resumed exactly once. *)

type t

(** Handle used to resume a suspended thread exactly once. *)
type 'a waker

val create : unit -> t

(** Abort [run] once this many events have fired (runaway protection). *)
val set_step_limit : t -> int -> unit

(** Install a trace sink: engine-level scheduling events (queue, spawn,
    suspend, resume) are emitted into it, and layers above reach it via
    {!tracer}.  Defaults to {!Trace.null} (tracing disabled). *)
val set_trace : t -> Trace.t -> unit

(** The installed trace sink ({!Trace.null} when tracing is off). *)
val tracer : t -> Trace.t

(** Current virtual time, in nanoseconds. *)
val now : t -> float

(** Queue a raw event thunk at absolute time [at] (clamped to now). *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** Start a simulated thread (optionally at a future time). *)
val spawn : ?at:float -> t -> (unit -> unit) -> unit

(** Inside a thread: advance virtual time by [d] nanoseconds. *)
val delay : float -> unit

(** [delay_in t d] behaves exactly like {!delay} for a thread running
    inside engine [t], but skips the effect round trip and the
    event queue when no other event is due before the wakeup (observably
    identical: same trace events, same event order). *)
val delay_in : t -> float -> unit

(** Inside a thread: the current virtual time. *)
val current_time : unit -> float

(** Inside a thread: park until the waker passed to [register] is fired;
    returns the value it delivers. *)
val suspend : ('a waker -> unit) -> 'a

(** Fire a waker; raises [Invalid_argument] if fired twice. *)
val resume : 'a waker -> 'a -> unit

exception Step_limit_exceeded

(** Run until the event queue drains. *)
val run : t -> unit

(** Run events up to virtual time [deadline]; later events stay queued
    and the clock stops at the deadline. *)
val run_until : t -> float -> unit

(** Number of queued events. *)
val pending : t -> int

(** Pushes into the event queue so far, and how many of them went to
    its far-tier heap ({!Heap.far_pushes}).  [delay_in] fast-path hits
    push nothing. *)
val queue_pushes : t -> int * int

(** Events fired so far (across [run]/[run_until] calls). *)
val steps : t -> int

(** Threads spawned and not yet finished (a thread that raised counts
    as finished). *)
val live : t -> int
