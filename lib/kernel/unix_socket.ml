(* UNIX domain socket model (SOCK_SEQPACKET flavour): a kernel message
   queue carrying a payload and its size.  This is the transport under
   local RPC (Sec. 2.2: "RPC on UNIX sockets using glibc's rpcgen") and
   under dIPC's default entry-resolution hook (Sec. 6.2.1). *)

module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs
module Memcost = Dipc_sim.Memcost

(* [copy_ns] is [Memcost.kernel_copy size], computed once per message:
   a float computed at each send and receive would be boxed there, to
   pass it to [Kernel.consume]. *)
type 'a message = { payload : 'a; size : int; copy_ns : float }

let message ~size payload = { payload; size; copy_ns = Memcost.kernel_copy size }

type 'a t = {
  kern : Kernel.t;
  queue : 'a message Queue.t;
  receivers : 'a message Kernel.Sleepq.q;
  senders : unit Kernel.Sleepq.q;
}

(* Queue depth at which a sender blocks. *)
let max_queued = 64

let create kern =
  {
    kern;
    queue = Queue.create ();
    receivers = Kernel.Sleepq.create ();
    senders = Kernel.Sleepq.create ();
  }

let send_msg t th msg =
  Kernel.syscall_overhead t.kern th;
  Kernel.consume t.kern th Breakdown.Kernel Costs.unix_socket_msg;
  (* Copy user data into the kernel skb. *)
  Kernel.consume t.kern th Breakdown.Kernel msg.copy_ns;
  while Queue.length t.queue >= max_queued do
    Kernel.block_on t.kern th t.senders
  done;
  if not (Kernel.wake_one t.kern ~waker:th t.receivers msg) then
    Queue.add msg t.queue

let send t th ~size payload = send_msg t th (message ~size payload)

(* Returns the sender's own message record: no tuple per message. *)
let recv t th =
  Kernel.syscall_overhead t.kern th;
  Kernel.consume t.kern th Breakdown.Kernel Costs.unix_socket_msg;
  let msg =
    match Queue.take_opt t.queue with
    | Some msg ->
        ignore (Kernel.wake_one t.kern ~waker:th t.senders ());
        msg
    | None -> Kernel.block_on t.kern th t.receivers
  in
  (* Copy from the kernel skb into the receiver's buffer. *)
  Kernel.consume t.kern th Breakdown.Kernel msg.copy_ns;
  msg

let pending t = Queue.length t.queue
