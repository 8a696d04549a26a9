(* UNIX domain socket model (SOCK_SEQPACKET flavour): a kernel message
   queue carrying a payload and its size.  This is the transport under
   local RPC (Sec. 2.2: "RPC on UNIX sockets using glibc's rpcgen") and
   under dIPC's default entry-resolution hook (Sec. 6.2.1). *)

module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs
module Memcost = Dipc_sim.Memcost

type 'a message = { payload : 'a; size : int }

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

let send t th ~size payload =
  Kernel.syscall_overhead t.kern th;
  Kernel.consume t.kern th Breakdown.Kernel Costs.unix_socket_msg;
  (* Copy user data into the kernel skb. *)
  Kernel.consume t.kern th Breakdown.Kernel (Memcost.kernel_copy size);
  while Queue.length t.queue >= max_queued do
    Kernel.block_on t.kern th t.senders
  done;
  let msg = { payload; size } in
  if not (Kernel.wake_one t.kern ~waker:th t.receivers msg) then
    Queue.add msg t.queue

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
  Kernel.consume t.kern th Breakdown.Kernel (Memcost.kernel_copy msg.size);
  msg

let pending t = Queue.length t.queue
