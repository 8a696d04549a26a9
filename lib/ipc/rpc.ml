(* Local RPC in the style of glibc's rpcgen over UNIX sockets (Sec. 2.2).

   The client stub marshals the argument with the XDR codec, sends it over
   a UNIX socket, and blocks for the reply; the server loop receives,
   demultiplexes by procedure number, demarshals, runs the handler, and
   marshals the response back.  All of the "(de)marshal and (de)multiplex"
   user-code overhead the paper calls out runs here for real. *)

module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs
module Kernel = Dipc_kernel.Kernel
module Unix_socket = Dipc_kernel.Unix_socket

type request = { proc_num : int; arg : string }

type wire = Request of request | Response of string

type t = {
  kern : Kernel.t;
  to_server : wire Unix_socket.t;
  to_client : wire Unix_socket.t;
}

let create kern =
  { kern; to_server = Unix_socket.create kern; to_client = Unix_socket.create kern }

let charge_marshal t th ~fields ~bytes =
  Kernel.consume t.kern th Breakdown.User_code (Xdr.marshal_cost ~fields ~bytes);
  (* Fixed per-call stub work: buffer management, credentials, XID. *)
  Kernel.consume t.kern th Breakdown.User_code (Costs.rpc_user_marshal /. 2.)

(* Client stub: call procedure [proc_num] passing [arg]. *)
let call t th ~proc_num ~arg =
  let e = Xdr.encoder () in
  Xdr.enc_int e proc_num;
  Xdr.enc_opaque e arg;
  let payload = Xdr.to_string e in
  charge_marshal t th ~fields:(Xdr.encoded_fields e) ~bytes:(String.length payload);
  Unix_socket.send t.to_server th ~size:(String.length payload)
    (Request { proc_num; arg });
  let { Unix_socket.payload = reply; size; _ } = Unix_socket.recv t.to_client th in
  match reply with
  | Response r ->
      let d = Xdr.decoder r in
      let result = Xdr.dec_opaque d in
      charge_marshal t th ~fields:(Xdr.decoded_fields d) ~bytes:size;
      result
  | Request _ -> invalid_arg "Rpc.call: protocol violation"

(* Server: handle exactly one request using [dispatch]. *)
let serve_one t th dispatch =
  let { Unix_socket.payload = msg; size; _ } = Unix_socket.recv t.to_server th in
  match msg with
  | Request { proc_num; arg } ->
      (* Demultiplex into the handler table. *)
      Kernel.consume t.kern th Breakdown.User_code Costs.rpc_user_dispatch;
      charge_marshal t th ~fields:2 ~bytes:size;
      let result = dispatch ~proc_num ~arg in
      let e = Xdr.encoder () in
      Xdr.enc_opaque e result;
      let payload = Xdr.to_string e in
      charge_marshal t th ~fields:(Xdr.encoded_fields e)
        ~bytes:(String.length payload);
      Unix_socket.send t.to_client th ~size:(String.length payload)
        (Response payload)
  | Response _ -> invalid_arg "Rpc.serve_one: protocol violation"
