(* Micro-benchmark harness for the IPC primitives of Figures 2, 5 and 6.

   Each primitive runs as a real blocking protocol between a client and a
   server thread on the simulated kernel; we measure warm synchronous
   round trips and collect the per-CPU cost breakdown in the paper's
   seven categories. *)

module Engine = Dipc_sim.Engine
module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs
module Memcost = Dipc_sim.Memcost
module Kernel = Dipc_kernel.Kernel
module Sem_channel = Dipc_ipc.Sem_channel
module Pipe_channel = Dipc_ipc.Pipe_channel
module L4_ipc = Dipc_ipc.L4_ipc
module Rpc = Dipc_ipc.Rpc
module Tcp_rpc = Dipc_ipc.Tcp_rpc
module User_rpc = Dipc_ipc.User_rpc

type result = {
  mean_ns : float; (* per round trip *)
  per_cpu : Breakdown.t array; (* per round trip, indexed by CPU *)
  total_breakdown : Breakdown.t;
  lifetime : Breakdown.t; (* whole-run totals incl. warmup, never reset *)
}

type primitive = Sem | Pipe | L4 | Local_rpc | Tcp_rpc_prim | User_rpc_prim

let primitive_name = function
  | Sem -> "Sem."
  | Pipe -> "Pipe"
  | L4 -> "L4"
  | Local_rpc -> "Local RPC"
  | Tcp_rpc_prim -> "TCP RPC"
  | User_rpc_prim -> "dIPC User RPC"

(* Consumer-producer payload work shared by every primitive: the caller
   composes the argument, the callee consumes it (the "baseline function
   call" of Fig. 6 does exactly this with a pointer). *)
let produce kern th bytes =
  Kernel.consume kern th Breakdown.User_code (Memcost.write_buffer bytes)

let consume_payload kern th bytes =
  Kernel.consume kern th Breakdown.User_code (Memcost.read_buffer bytes)

(* Run [iters] warm round trips of [primitive] and return per-round-trip
   means.  [same_cpu] pins client and server to CPU 0, otherwise they sit
   on CPUs 0 and 1. *)
let run ?(bytes = 1) ?(warmup = 20) ?(iters = 200) ?trace ?inject ~same_cpu
    primitive =
  let engine = Engine.create () in
  (match trace with Some tr -> Engine.set_trace engine tr | None -> ());
  let kern = Kernel.create engine ~ncpus:2 in
  (match inject with Some inj -> Kernel.set_inject kern (Some inj) | None -> ());
  let client_proc = Kernel.create_process kern ~name:"client" in
  let server_proc = Kernel.create_process kern ~name:"server" in
  let server_cpu = if same_cpu then 0 else 1 in
  let measured = ref 0. in
  let started = ref 0. in
  let iteration = ref 0 in
  let total = warmup + iters in
  (* Per-primitive client call and server loop. *)
  let client_call, spawn_server =
    match primitive with
    | Sem ->
        let ch = Sem_channel.create kern in
        (* The channel itself charges the shared-buffer population (the
           producer's write) and the consumer's read. *)
        ( (fun th -> Sem_channel.call ch th ~bytes),
          fun () ->
            ignore
              (Kernel.spawn ~cpu:server_cpu kern server_proc ~name:"server"
                 (fun th ->
                   for _ = 1 to total do
                     Sem_channel.serve ch th (fun _ -> ())
                   done)) )
    | Pipe ->
        let ch = Pipe_channel.create kern in
        ( (fun th -> Pipe_channel.call ch th ~bytes),
          fun () ->
            ignore
              (Kernel.spawn ~cpu:server_cpu kern server_proc ~name:"server"
                 (fun th ->
                   for _ = 1 to total do
                     Pipe_channel.serve ch th ~bytes (fun _ -> ())
                   done)) )
    | L4 ->
        let ch = L4_ipc.create kern in
        ( (fun th ->
            produce kern th bytes;
            L4_ipc.call ch th ~bytes),
          fun () ->
            ignore
              (Kernel.spawn ~cpu:server_cpu kern server_proc ~name:"server"
                 (fun th ->
                   let b = ref (L4_ipc.wait ch th) in
                   for _ = 2 to total do
                     consume_payload kern th !b;
                     b := L4_ipc.reply_and_wait ch th
                   done;
                   consume_payload kern th !b;
                   ignore (L4_ipc.reply_and_wait ch th))) )
    | Local_rpc ->
        let ch = Rpc.create kern in
        let arg = String.make bytes 'x' in
        ( (fun th -> ignore (Rpc.call ch th ~proc_num:7 ~arg)),
          fun () ->
            ignore
              (Kernel.spawn ~cpu:server_cpu kern server_proc ~name:"server"
                 (fun th ->
                   for _ = 1 to total do
                     Rpc.serve_one ch th (fun ~proc_num:_ ~arg ->
                         consume_payload kern th (String.length arg);
                         "ok")
                   done)) )
    | Tcp_rpc_prim ->
        let ch = Tcp_rpc.create kern in
        let arg = String.make bytes 'x' in
        ( (fun th -> ignore (Tcp_rpc.call ch th ~proc_num:7 ~arg)),
          fun () ->
            ignore
              (Kernel.spawn ~cpu:server_cpu kern server_proc ~name:"server"
                 (fun th ->
                   for _ = 1 to total do
                     Tcp_rpc.serve_one ch th (fun ~proc_num:_ ~arg ->
                         consume_payload kern th (String.length arg);
                         "ok")
                   done)) )
    | User_rpc_prim ->
        let ch = User_rpc.create kern in
        ( (fun th -> User_rpc.call ch th ~bytes),
          fun () ->
            ignore
              (Kernel.spawn ~cpu:server_cpu kern server_proc ~name:"server"
                 (fun th ->
                   for _ = 1 to total do
                     User_rpc.serve ch th (fun b -> consume_payload kern th b)
                   done)) )
  in
  spawn_server ();
  (* Start the client once the server is parked: on real hardware the
     sides never start in lockstep, and the first sleep installs the
     self-sustaining blocking regime the paper measures. *)
  ignore
    (Kernel.spawn ~cpu:0 ~at:(Some 100_000.) kern client_proc ~name:"client"
       (fun th ->
         for _ = 1 to total do
           incr iteration;
           if !iteration = warmup + 1 then begin
             Kernel.reset_stats kern;
             started := Engine.now engine
           end;
           client_call th
         done;
         measured := Engine.now engine -. !started));
  Engine.run engine;
  let n = float_of_int iters in
  let per_cpu =
    Array.init (Kernel.ncpus kern) (fun i ->
        Breakdown.scale (Breakdown.to_figure2 (Kernel.cpu_breakdown kern i)) (1. /. n))
  in
  let total_breakdown = Breakdown.create () in
  Array.iter (fun b -> Breakdown.merge ~into:total_breakdown b) per_cpu;
  {
    mean_ns = !measured /. n;
    per_cpu;
    total_breakdown;
    lifetime = Breakdown.copy (Kernel.lifetime_breakdown kern);
  }

(* Fig. 6 baseline: produce + consume through a pointer. *)
let baseline_payload_ns bytes =
  Memcost.write_buffer bytes +. Memcost.read_buffer bytes +. Costs.function_call
