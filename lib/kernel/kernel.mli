(** Discrete-event model of a small multiprocessor OS kernel.

    Threads are simulated-time coroutines; each CPU is a token a thread
    must hold to consume time.  Run queues, wake-on-last-CPU affinity,
    context/page-table switch charges, IPIs and idle accounting reproduce
    the scheduling behaviour the paper measures, with every nanosecond
    attributed to a Figure 2 cost block per CPU. *)

module Engine = Dipc_sim.Engine
module Breakdown = Dipc_sim.Breakdown

type process

type thread

type t

val create : Engine.t -> ncpus:int -> t

val engine : t -> Engine.t

(** Install (or clear) a fault injector: IPI deliveries, futex waits and
    quantum boundaries consult it for seeded perturbations.  With no
    injector (the default) those paths draw nothing and the event
    timeline is byte-identical to an uninjected run. *)
val set_inject : t -> Dipc_sim.Inject.t option -> unit

val inject : t -> Dipc_sim.Inject.t option

(** Every nanosecond charged since creation, across all CPUs and
    categories, never reset (unlike {!reset_stats}'s per-CPU views):
    the conservation reference for the trace invariant checker. *)
val lifetime_breakdown : t -> Breakdown.t

val ncpus : t -> int

(** Next value of the per-kernel timing-jitter seed stream (futex path
    and similar non-deterministic-latency models).  Keeping the counter
    on the kernel — not a process global — is what makes same-seed runs
    replay the identical event timeline. *)
val fresh_jitter_seed : t -> int

(** Current virtual time. *)
val now : t -> float

(* --- processes --- *)

val create_process : t -> name:string -> process

(** Join two processes into one shared address space (dIPC's shared page
    table, Sec. 6.1.3): no page-table switch between their threads. *)
val share_address_space : target:process -> with_:process -> unit

val alloc_fd : process -> string -> int

(* --- CPU consumption and blocking (called from inside threads) --- *)

(** Consume CPU time attributed to [category]; long stretches are chopped
    into scheduler quanta so ready threads make progress. *)
val consume : t -> thread -> Breakdown.category -> float -> unit

(** Charge the syscall entry/exit and dispatch blocks. *)
val syscall_overhead : t -> thread -> unit

(** Sleep queues: blocking with scheduler integration.  A queue is an
    intrusive FIFO linked through its sleepers (a thread waits on at
    most one queue, or run queue, at a time), so parking on it and
    waking from it allocate nothing; ['a] is the type of the values its
    wakes hand over. *)
module Sleepq : sig
  type 'a q

  val create : unit -> 'a q

  val length : 'a q -> int
end

(** Release the CPU and park the calling thread at the tail of [q];
    returns the value its wake passes, once it holds a CPU again. *)
val block_on : t -> thread -> 'a Sleepq.q -> 'a

(** Wake the oldest sleeper on the CPU it last ran on, charging the
    waker an IPI when that is not the waker's CPU; false if the queue
    was empty.  Raises [Invalid_argument] if the sleeper is not parked
    (a broken queue invariant, not a lost wakeup). *)
val wake_one : t -> waker:thread -> 'a Sleepq.q -> 'a -> bool

(** Wake one sleeper with no running thread behind it: no IPI is
    modelled.  For a device completing a request (the OLTP disk wakes
    its requesters from its own pump thread) and for spurious wakeups
    and timer redelivery, where the queue's sleepers re-check their
    predicate after waking, like the futex wait loop. *)
val wake_detached : 'a Sleepq.q -> 'a -> bool

(** Blocking wall-clock wait (disk, NIC, timer). *)
val io_wait : t -> thread -> float -> unit

(* --- thread creation --- *)

(** Start a thread of [proc] running [body]; [cpu >= 0] pins it, [at]
    delays its start.  Unpinned threads spread across CPUs at spawn and
    then wake on the CPU they last ran on (the affinity behind the
    Sec. 7.4 scheduler imbalance). *)
val spawn :
  ?cpu:int -> ?at:float option -> t -> process -> name:string -> (thread -> unit) -> thread

(* --- statistics --- *)

val cpu_breakdown : t -> int -> Breakdown.t

(** Time CPU [i] sat idle since creation or the last {!reset_stats},
    up to now: its current idle stretch counts too.  Elapsed time, not
    charges: {!cpu_breakdown} adds each charge whole when it is made,
    including a preempted thread's context switch, which takes no
    simulated time. *)
val cpu_idle_total : t -> int -> float

val reset_stats : t -> unit
