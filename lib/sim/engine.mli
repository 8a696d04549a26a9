(** Discrete-event simulation engine.

    Simulated threads are ordinary OCaml functions run under an effect
    handler that turns blocking operations into queued
    continuations, so protocol code reads in direct style.  Continuations
    are one-shot: every suspended thread is resumed exactly once, by its
    own {!delay} or by an {!unpark} of its handle.  The
    queue holds the continuations themselves, not closures around them:
    a queued delay or a {!park} allocates only the runtime's
    continuation (2 words), and an {!unpark} nothing. *)

type t

(** A thread's reusable park handle, one per thread: {!unpark} re-queues
    the thread's own event cell, the one its delays use. *)
type parker

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

(** [delay t d], inside a thread of engine [t] (and only there: [t]
    must be the engine running the calling thread): advance virtual time
    by [d] nanoseconds.  Always queues the wakeup and suspends the
    thread, allocating only its continuation; a non-positive [d] is a
    no-op. *)
val delay : t -> float -> unit

(** [delay_in t d] behaves exactly like [delay t d] (same trace events,
    same event order), but skips the effect round trip and the event
    queue when no other event is due before the wakeup, and then
    allocates nothing.  Otherwise it takes {!delay}'s path. *)
val delay_in : t -> float -> unit

(** Inside a thread: its park handle.  Costs an effect round trip, so
    fetch it once and keep it. *)
val parker : unit -> parker

(** Inside a thread: park until {!unpark} of the thread's handle.  A
    caller that must be found by its waker records the thread (in a
    queue, say) before it parks: nothing runs in between.  Emits a
    Suspend trace event.  A value for the thread is handed over beside
    the handle (a ref, a field of the queue entry). *)
val park : unit -> unit

(** Queue a parked thread to resume at the current time, behind every
    event already due then, with no allocation: a Resume trace event,
    then the push's Sched.  Raises [Invalid_argument] if the thread is
    not parked. *)
val unpark : parker -> unit

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
