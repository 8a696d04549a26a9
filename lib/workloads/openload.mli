(** Open / partly-open arrival workload generator (ROADMAP item 1):
    millions of simulated client sessions, each just its remaining
    request count, flowing through a c-server FIFO queue, with per-request sojourn latency
    recorded in an HDR histogram.

    Deterministic in the seed: every stochastic component draws from its
    own splitmix64 stream, and bounded integer draws use the unbiased
    rejection sampler.  Independent runs share no state, so sweeps shard
    across domains with byte-identical digests at any job count. *)

module Histogram = Dipc_sim.Histogram

type arrival =
  | Poisson  (** memoryless arrivals at the offered rate *)
  | Bursty  (** MMPP on/off: 4x-rate bursts a fifth of the time *)
  | Diurnal  (** sinusoidal +-80% rate swing, ~3 cycles per run *)

val arrival_name : arrival -> string

val arrival_of_string : string -> arrival option

type params = {
  seed : int;
  sessions : int;  (** client sessions admitted over the run *)
  servers : int;  (** simulated CPUs serving requests *)
  service_ns : float;  (** mean service demand per request *)
  offered_load : float;  (** rho = request rate * service_ns / servers *)
  arrival : arrival;
  max_extra_reqs : int;
      (** partly-open: each session issues 1 + uniform[0, max_extra_reqs]
          requests with think pauses between them *)
  think_ns : float;  (** mean think time within a session *)
}

val default_params :
  ?seed:int ->
  ?sessions:int ->
  ?servers:int ->
  ?offered_load:float ->
  ?arrival:arrival ->
  ?max_extra_reqs:int ->
  ?think_ns:float ->
  service_ns:float ->
  unit ->
  params

type result = {
  r_sessions : int;
  r_requests : int;
  r_latency : Histogram.t;  (** per-request sojourn (wait + service), ns *)
  r_makespan_ns : float;  (** completion time of the last request *)
  r_busy_ns : float;  (** total CPU-busy time across servers *)
  r_digest : string;  (** deterministic outcome digest *)
}

(** Simulate the full session stream.  Cost is a few heap operations and
    RNG draws per request, with no allocation per request: a million
    sessions complete in well under a host second. *)
val run : params -> result

(** {!run} under its former name, ignoring [shards]: kept only for the
    benchmark's [open_million] workload, which calls it by this name. *)
val run_sharded : ?shards:int -> params -> result

val utilization : result -> servers:int -> float

(** Achieved throughput in requests per simulated second. *)
val throughput_rps : result -> float

(** First offered load whose p99 is at least 3x the p99 at the lightest
    load, over (load, p99) pairs in ascending load order — the
    saturation knee of a load sweep. *)
val saturation_knee : (float * float) list -> float option
