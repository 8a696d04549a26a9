(** Canonical two-domain benchmark scenario (Sec. 7.2): a caller and a
    callee — two domains of one process ("dIPC") or two processes
    ("dIPC +proc") — connected through a proxy with a chosen isolation
    policy, measured by executing the generated code. *)

type t = {
  sys : System.t;
  resolver : Resolver.t;
  caller : System.process;
  callee : System.process;  (** same record as [caller] when same-process *)
  thread : System.thread;
  symbol : Annot.symbol;
  stub : int;  (** resolved caller stub *)
}

(** The default callee: add its two arguments. *)
val default_fn : Dipc_hw.Isa.instr list

val make :
  ?same_process:bool ->
  ?tls_optimized:bool ->
  ?caller_props:Types.props ->
  ?callee_props:Types.props ->
  ?sig_:Types.signature ->
  ?fn:Dipc_hw.Isa.instr list ->
  ?proxy_cache:Proxy_cache.t ->
  unit ->
  t

val call : t -> args:int list -> (int, Dipc_hw.Fault.t) result

(** Mean per-call simulated cost over [iters] warm calls. *)
val measure : ?warmup:int -> ?iters:int -> t -> Dipc_sim.Stats.summary
