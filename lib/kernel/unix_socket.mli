(** UNIX domain socket model (SOCK_SEQPACKET flavour): the transport
    under local RPC (Sec. 2.2) and dIPC's default entry-resolution hook
    (Sec. 6.2.1). *)

type 'a t

(** A received message: its payload and its size in bytes. *)
type 'a message = { payload : 'a; size : int }

(** A socket whose senders block once 64 messages are queued. *)
val create : Kernel.t -> 'a t

(** Send a message of [size] bytes; blocks when the queue is full. *)
val send : 'a t -> Kernel.thread -> size:int -> 'a -> unit

(** Receive the oldest message; blocks when empty. *)
val recv : 'a t -> Kernel.thread -> 'a message

val pending : 'a t -> int
