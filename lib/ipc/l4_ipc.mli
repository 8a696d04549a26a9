(** L4 Fiasco.OC-style synchronous IPC (Sec. 2.2): one syscall performs
    send+receive, small payloads travel in registers, and the kernel
    switches directly to the partner thread. *)

module Kernel = Dipc_kernel.Kernel

type t

val create : Kernel.t -> t

(** ipc_call: send a request of [bytes] and block for the reply. *)
val call : t -> Kernel.thread -> bytes:int -> unit

(** ipc_reply_and_wait: answer the previous caller, await the next
    request; returns its size. *)
val reply_and_wait : t -> Kernel.thread -> int

(** ipc_wait: initial server wait. *)
val wait : t -> Kernel.thread -> int
