(** Micro-benchmark harness for the IPC primitives of Figures 2, 5 and 6:
    each primitive runs as a real blocking protocol between a client and
    a server thread on the simulated kernel. *)

module Breakdown = Dipc_sim.Breakdown

type result = {
  mean_ns : float;  (** per synchronous round trip *)
  per_cpu : Breakdown.t array;  (** per round trip, indexed by CPU *)
  total_breakdown : Breakdown.t;
  lifetime : Breakdown.t;
      (** whole-run kernel totals including warmup, never reset — the
          conservation reference for {!Dipc_sim.Checker.finish} *)
}

type primitive = Sem | Pipe | L4 | Local_rpc | Tcp_rpc_prim | User_rpc_prim

val primitive_name : primitive -> string

(** Measure [iters] warm round trips with a [bytes]-sized argument;
    [same_cpu] pins both sides to CPU 0, otherwise they run on CPUs 0
    and 1.  [trace] installs a structured event trace sink on the run's
    engine (observational only: results are identical with and without).
    [inject] installs a seeded fault injector on the run's kernel. *)
val run :
  ?bytes:int ->
  ?warmup:int ->
  ?iters:int ->
  ?trace:Dipc_sim.Trace.t ->
  ?inject:Dipc_sim.Inject.t ->
  same_cpu:bool ->
  primitive ->
  result

(** Figure 6 baseline: produce + consume the payload through a pointer. *)
val baseline_payload_ns : int -> float
