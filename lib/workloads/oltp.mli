(** Multi-tier OLTP web workload (Secs. 2, 7.4; Figures 1 and 8): a
    closed queueing model of the DVDStore stack (Apache -> PHP ->
    MariaDB) on a 4-CPU machine, runnable in the paper's three
    configurations. *)

module Stats = Dipc_sim.Stats

type config =
  | Linux  (** per-tier processes + UNIX-socket service pools *)
  | Dipc  (** in-place dIPC crossings at the measured proxy cost *)
  | Ideal  (** unsafe single process, plain function calls *)

val config_name : config -> string

type db_mode = On_disk | In_memory

type params = {
  db_mode : db_mode;
  threads : int;  (** per component *)
  web_work : float;  (** user CPU per op per tier, ns *)
  php_work : float;
  db_work : float;
  web_php_roundtrips : int;
  php_db_roundtrips : int;
  disk_reads_per_op : float;
  disk_mean : float;
  warmup : float;  (** simulated ns before measurement *)
  duration : float;
  ncpus : int;
}

(** Calibrated defaults (Secs. 7.4-7.5: ~208 one-way crossings per op). *)
val default_params : db_mode:db_mode -> threads:int -> params

val crossings_per_op : params -> int

type result = {
  r_config : config;
  r_threads : int;
  r_ops : int;
  r_throughput_opm : float;  (** operations per minute *)
  r_latency_ns : Stats.summary;
  r_user_frac : float;
  r_kernel_frac : float;
  r_idle_frac : float;
}

(** Run one cell of the Figure 8 matrix.  [params_override] replaces the
    calibrated defaults (shorter durations for tests).  [seed] drives
    every RNG stream in the run (default 41, the calibrated legacy
    streams): equal seeds replay the identical event timeline.  [trace]
    installs a structured event trace sink on the run's engine.
    [inject] installs a seeded fault injector on the run's kernel.
    [drive_until] replaces the bounded event-loop driver (default
    [Engine.run_until]) — the repository benchmark passes one that
    advances each of the warmup and measurement phases in 32 timed
    slices of [Engine.run_until]; any driver with [run_until] semantics
    must yield identical results. *)
val run :
  ?params_override:params option ->
  ?seed:int ->
  ?trace:Dipc_sim.Trace.t ->
  ?inject:Dipc_sim.Inject.t ->
  ?drive_until:(Dipc_sim.Engine.t -> float -> unit) ->
  config:config ->
  db_mode:db_mode ->
  threads:int ->
  unit ->
  result
