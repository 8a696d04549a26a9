(* RPC over loopback TCP/IP — the facility the paper's footnote 1 sets
   aside ("UNIX sockets ... faster than TCP/IP due to header processing
   and additional intermediate data copies").  Implemented so the claim
   is checkable: the same rpcgen-style stubs as [Rpc], but the transport
   pays TCP/IP segment processing and an extra kernel copy per hop. *)

module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs
module Memcost = Dipc_sim.Memcost
module Kernel = Dipc_kernel.Kernel

let mss = 1448 (* loopback MTU 1500 minus headers *)

(* TCP/IP header processing per segment, each side (checksum, sequence
   bookkeeping, ack generation). *)
let per_segment_kernel = 380.0

type wire = Request of Rpc.request | Response of string

type t = {
  kern : Kernel.t;
  to_server : wire Dipc_kernel.Unix_socket.t; (* queue mechanics reused *)
  to_client : wire Dipc_kernel.Unix_socket.t;
}

let create kern =
  {
    kern;
    to_server = Dipc_kernel.Unix_socket.create kern;
    to_client = Dipc_kernel.Unix_socket.create kern;
  }

let segments bytes = max 1 ((bytes + mss - 1) / mss)

(* The TCP path on top of the socket transfer: segment processing plus
   the extra skb-to-socket-buffer copy UNIX sockets avoid. *)
let charge_tcp t th ~bytes =
  Kernel.consume t.kern th Breakdown.Kernel
    (float_of_int (segments bytes) *. per_segment_kernel);
  Kernel.consume t.kern th Breakdown.Kernel (Memcost.kernel_copy bytes)

let charge_marshal t th ~fields ~bytes =
  Kernel.consume t.kern th Breakdown.User_code (Xdr.marshal_cost ~fields ~bytes);
  Kernel.consume t.kern th Breakdown.User_code (Costs.rpc_user_marshal /. 2.)

let call t th ~proc_num ~arg =
  let e = Xdr.encoder () in
  Xdr.enc_int e proc_num;
  Xdr.enc_opaque e arg;
  let payload = Xdr.to_string e in
  let bytes = String.length payload in
  charge_marshal t th ~fields:(Xdr.encoded_fields e) ~bytes;
  charge_tcp t th ~bytes;
  Dipc_kernel.Unix_socket.send t.to_server th ~size:bytes
    (Request { Rpc.proc_num; arg });
  let { Dipc_kernel.Unix_socket.payload = reply; size; _ } =
    Dipc_kernel.Unix_socket.recv t.to_client th
  in
  charge_tcp t th ~bytes:size;
  match reply with
  | Response r ->
      let d = Xdr.decoder r in
      let result = Xdr.dec_opaque d in
      charge_marshal t th ~fields:(Xdr.decoded_fields d) ~bytes:size;
      result
  | Request _ -> invalid_arg "Tcp_rpc.call: protocol violation"

let serve_one t th dispatch =
  let { Dipc_kernel.Unix_socket.payload = msg; size; _ } =
    Dipc_kernel.Unix_socket.recv t.to_server th
  in
  match msg with
  | Request { Rpc.proc_num; arg } ->
      charge_tcp t th ~bytes:size;
      Kernel.consume t.kern th Breakdown.User_code Costs.rpc_user_dispatch;
      charge_marshal t th ~fields:2 ~bytes:size;
      let result = dispatch ~proc_num ~arg in
      let e = Xdr.encoder () in
      Xdr.enc_opaque e result;
      let payload = Xdr.to_string e in
      let bytes = String.length payload in
      charge_marshal t th ~fields:(Xdr.encoded_fields e) ~bytes;
      charge_tcp t th ~bytes;
      Dipc_kernel.Unix_socket.send t.to_client th ~size:bytes (Response payload)
  | Response _ -> invalid_arg "Tcp_rpc.serve_one: protocol violation"
