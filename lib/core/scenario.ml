(* Canonical two-domain benchmark scenario (Sec. 7.2).

   Builds the paper's micro-benchmark setup: a caller and a callee, either
   two domains of one process ("dIPC") or two processes ("dIPC +proc"),
   connected through a proxy with a given isolation policy; then measures
   warm synchronous calls by executing the generated code on the machine
   model. *)

module Isa = Dipc_hw.Isa
module Machine = Dipc_hw.Machine
module Stats = Dipc_sim.Stats

type t = {
  sys : System.t;
  resolver : Resolver.t;
  caller : System.process;
  callee : System.process; (* same record as [caller] when same-process *)
  thread : System.thread;
  symbol : Annot.symbol;
  stub : int; (* resolved caller stub *)
}

(* The callee: a trivial add, like the paper's one-byte-argument call. *)
let default_fn = [ Isa.Add (0, 0, 1); Isa.Ret ]

let make ?(same_process = false) ?(tls_optimized = false)
    ?(caller_props = Types.props_low) ?(callee_props = Types.props_low)
    ?(sig_ = Types.signature ~args:2 ~rets:1 ()) ?(fn = default_fn)
    ?proxy_cache () =
  let sys = System.create ?proxy_cache () in
  sys.System.tls_optimized <- tls_optimized;
  let resolver = Resolver.create () in
  let callee = System.create_process sys ~name:"callee" in
  let caller =
    if same_process then callee else System.create_process sys ~name:"caller"
  in
  (* Callee side: its exported function lives in a dedicated domain. *)
  let callee_img = Annot.image sys callee in
  let callee_dom =
    if same_process then "service" else "default"
  in
  if same_process then ignore (Annot.declare_domain sys callee_img "service");
  ignore (Annot.declare_function sys callee_img ~name:"fn" ~dom:callee_dom fn);
  let handle =
    Annot.declare_entries sys callee_img ~name:"svc" ~dom:callee_dom
      [ ("fn", sig_, callee_props) ]
  in
  Resolver.publish resolver ~path:"/run/svc.sock" handle;
  (* Caller side. *)
  let caller_img = Annot.image sys caller in
  let symbol =
    Annot.import caller_img ~path:"/run/svc.sock" ~sig_ ~props:caller_props ()
  in
  let thread = System.create_thread sys caller in
  let stub = Annot.resolve sys resolver symbol in
  { sys; resolver; caller; callee; thread; symbol; stub }

let call t ~args = Call.exec t.sys t.thread ~fn:t.stub ~args

(* Mean per-call cost in simulated nanoseconds over [iters] warm calls.
   The first [warmup] calls populate the tracking cache and the APL
   cache. *)
let measure ?(warmup = 3) ?(iters = 50) t =
  for _ = 1 to warmup do
    match call t ~args:[ 1; 2 ] with
    | Ok _ -> ()
    | Error f -> failwith (Dipc_hw.Fault.to_string f)
  done;
  let ctx = t.thread.System.t_ctx in
  let stats = Stats.create () in
  for _ = 1 to iters do
    let c0 = ctx.Machine.cost in
    (match call t ~args:[ 1; 2 ] with
    | Ok _ -> ()
    | Error f -> failwith (Dipc_hw.Fault.to_string f));
    Stats.add stats (ctx.Machine.cost -. c0)
  done;
  Stats.summary stats
