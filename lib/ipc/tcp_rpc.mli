(** RPC over loopback TCP/IP (the paper's footnote 1 baseline): the same
    rpcgen-style stubs as {!Rpc}, but the transport pays per-segment
    TCP/IP header processing and an extra kernel copy per hop. *)

module Kernel = Dipc_kernel.Kernel

type t

val create : Kernel.t -> t

val call : t -> Kernel.thread -> proc_num:int -> arg:string -> string

val serve_one : t -> Kernel.thread -> (proc_num:int -> arg:string -> string) -> unit
