(** UNIX domain socket model (SOCK_SEQPACKET flavour): the transport
    under local RPC (Sec. 2.2) and dIPC's default entry-resolution hook
    (Sec. 6.2.1). *)

type 'a t

(** A message: its payload, its size in bytes and the kernel's cost of
    copying it, in ns, charged once by its sender and once by its
    receiver.  Immutable, so a sender that sends the same payload again
    and again (an RPC client's request) can build it once and reuse
    it. *)
type 'a message = private { payload : 'a; size : int; copy_ns : float }

(** [message ~size payload] builds a message of [size] bytes. *)
val message : size:int -> 'a -> 'a message

(** A socket whose senders block once 64 messages are queued. *)
val create : Kernel.t -> 'a t

(** Send a caller-owned message; blocks when the queue is full.  The
    receiver gets the same record back, so sending allocates nothing
    when a receiver is waiting. *)
val send_msg : 'a t -> Kernel.thread -> 'a message -> unit

(** [send t th ~size payload] = [send_msg t th (message ~size payload)]:
    builds a message per send. *)
val send : 'a t -> Kernel.thread -> size:int -> 'a -> unit

(** Receive the oldest message (the record its sender sent); blocks
    when empty. *)
val recv : 'a t -> Kernel.thread -> 'a message

val pending : 'a t -> int
