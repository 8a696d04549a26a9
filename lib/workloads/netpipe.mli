(** Device-driver isolation on Infiniband (Sec. 7.3, Figure 7): a
    netpipe-style latency/bandwidth model where each message involves a
    fixed number of application<->driver interactions and isolating the
    driver interposes one mechanism on each of them. *)

type mechanism = Baseline | Kernel_driver | Sem_ipc | Pipe_ipc | Dipc_proc | Dipc_same

val mechanism_name : mechanism -> string

(** Measured round-trip/call costs the model is evaluated against. *)
type costs = {
  sem_roundtrip : float;
  pipe_roundtrip : float;
  dipc_proc_call : float;
  dipc_same_call : float;
}

(** One-way message latency, ns. *)
val latency : costs -> mechanism -> bytes:int -> float

val latency_overhead_pct : costs -> mechanism -> bytes:int -> float

(** Streaming bandwidth, bytes/ns. *)
val bandwidth : costs -> mechanism -> bytes:int -> float

val bandwidth_overhead_pct : costs -> mechanism -> bytes:int -> float
