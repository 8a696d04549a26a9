(* Multi-tier OLTP web workload (Secs. 2, 7.4; Figures 1 and 8).

   A closed queueing model of the DVDStore stack: Apache (web tier), PHP
   (FastCGI pool) and MariaDB (thread pool) on a 4-CPU machine, with the
   measured structure of one operation — a handful of web<->php crossings
   and ~a hundred php<->db round trips, 211 one-way domain crossings in
   total (Sec. 7.5).

   Three configurations, exactly the paper's:
   - Linux: each tier its own process; crossings are UNIX-socket RPCs to a
     service-thread pool (false concurrency, Sec. 2.3).
   - Ideal (unsafe): everything inlined in one process; crossings are
     plain function calls.
   - dIPC: everything inlined in one thread, but every crossing pays the
     measured dIPC proxy cost under cache pressure (252 ns). *)

module Engine = Dipc_sim.Engine
module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs
module Rng = Dipc_sim.Rng
module Stats = Dipc_sim.Stats
module Kernel = Dipc_kernel.Kernel
module Unix_socket = Dipc_kernel.Unix_socket

type config = Linux | Dipc | Ideal

let config_name = function Linux -> "Linux" | Dipc -> "dIPC" | Ideal -> "Ideal (unsafe)"

type db_mode = On_disk | In_memory

type params = {
  db_mode : db_mode;
  threads : int; (* per component *)
  web_work : float; (* user CPU per op in the web tier, ns *)
  php_work : float;
  db_work : float;
  web_php_roundtrips : int;
  php_db_roundtrips : int;
  disk_reads_per_op : float;
  disk_mean : float; (* ns *)
  warmup : float; (* simulated ns *)
  duration : float;
  ncpus : int;
}

(* Structure calibrated to Sec. 7.5: 2*(2 + php_db) one-way crossings +
   the web->client boundary ~= 211 crossings per operation. *)
let default_params ~db_mode ~threads =
  {
    db_mode;
    threads;
    web_work = 500_000.;
    php_work = 1_700_000.;
    db_work = 1_000_000.;
    web_php_roundtrips = 1;
    php_db_roundtrips = 103;
    disk_reads_per_op = (match db_mode with On_disk -> 1.0 | In_memory -> 0.0);
    disk_mean = 1_300_000.;
    (* Enough warmup that even 512 concurrent sessions (latencies of
       hundreds of ms) reach steady state before measurement starts. *)
    warmup = 400_000_000. +. (float_of_int threads *. 4_000_000.);
    duration = 1_200_000_000.;
    ncpus = 4;
  }

let crossings_per_op p = 2 * (p.web_php_roundtrips + p.php_db_roundtrips)

type result = {
  r_config : config;
  r_threads : int;
  r_ops : int;
  r_throughput_opm : float; (* operations per minute *)
  r_latency_ns : Stats.summary;
  r_user_frac : float;
  r_kernel_frac : float;
  r_idle_frac : float;
}

(* --- shared infrastructure --- *)

(* The disk is a self-serving device: requesters sleep on its queue and
   a pump thread completes their requests in arrival order off the
   interrupt path, so the disk never idles waiting for a requester
   thread to get a CPU (the kernel I/O scheduler's job).  The pump runs
   exactly while the queue is non-empty: no thread runs between a
   requester starting it and joining the queue, or between the pump
   waking the last requester and stopping. *)
type disk = {
  d_kern : Kernel.t;
  d_requests : unit Kernel.Sleepq.q;
  d_rng : Rng.t;
  d_mean : float;
}

let disk_create kern ~seed ~mean =
  {
    d_kern = kern;
    d_requests = Kernel.Sleepq.create ();
    d_rng = Rng.create ~seed;
    d_mean = mean;
  }

(* Serve the oldest request for one service draw, then wake it. *)
let rec disk_pump d =
  if Kernel.Sleepq.length d.d_requests > 0 then begin
    Engine.delay_in (Kernel.engine d.d_kern) (Rng.exponential d.d_rng ~mean:d.d_mean);
    ignore (Kernel.wake_detached d.d_requests ());
    disk_pump d
  end

let disk_read d th =
  if Kernel.Sleepq.length d.d_requests = 0 then
    Engine.spawn (Kernel.engine d.d_kern) (fun () -> disk_pump d);
  Kernel.block_on d.d_kern th d.d_requests

(* A service-thread pool fed by a UNIX socket: the Linux configuration's
   IPC fabric.  A request is its client's reply queue: the client sleeps
   on it and the serving thread wakes it.  A client has at most one RPC
   in flight, so each keeps one request for all of them. *)
type request = unit Kernel.Sleepq.q

type pool = {
  p_kern : Kernel.t;
  p_sock : request Unix_socket.t;
  p_stall_mean : float; (* scheduler-imbalance wait per service wake, ns *)
  p_rng : Rng.t;
}

(* Scheduler imbalance (Sec. 7.4): "the large number of threads necessary
   to fill the system lead the scheduler to temporarily imbalance the
   CPUs, at which point synchronous IPC must wait to contact a remote
   process."  A woken service thread waits in its CPU's run queue behind
   earlier wakeups and running time slices; the wait grows with the number
   of threads per run queue and saturates once queues are full, while high
   concurrency progressively hides it (more sessions overlap the waits).
   Calibrated against the Figure 8 speedup series. *)
let imbalance_stall_mean ~threads =
  let collision = Float.min 1.0 (float_of_int threads /. 16.) in
  let queue_depth = float_of_int (min threads 32) in
  collision *. 38_000. *. queue_depth

let pool_create ?(stall_mean = 0.) ~seed kern =
  {
    p_kern = kern;
    p_sock = Unix_socket.create kern;
    p_stall_mean = stall_mean;
    p_rng = Rng.create ~seed;
  }

(* Application-level protocol work per message, each side: FastCGI/MySQL
   protocol framing, request (de)multiplexing, glue code (Sec. 2.2's
   "overheads also trickle into applications"). *)
let protocol_user_ns = 600.

(* Event-loop and socket-readiness kernel work per message beyond the bare
   socket transfer (epoll/poll wakeup bookkeeping). *)
let event_loop_kernel_ns = 800.

(* One synchronous RPC into the pool: marshal, socket send, wait for
   completion, demarshal the response.  [msg] is the client's request
   wrapped in its socket message, built once with the request. *)
let pool_call pool th (msg : request Unix_socket.message) =
  Kernel.consume pool.p_kern th Breakdown.User_code protocol_user_ns;
  Kernel.consume pool.p_kern th Breakdown.Kernel event_loop_kernel_ns;
  Unix_socket.send_msg pool.p_sock th msg;
  Kernel.block_on pool.p_kern th msg.payload;
  Kernel.consume pool.p_kern th Breakdown.User_code protocol_user_ns

(* Every thread of a pool (or tier) shares its name: thread names are
   never read, and formatting one per thread was half the host time of
   setting up the Fig. 8 model.  [serve ()] builds a thread's request
   handler when the thread starts, so the state a handler keeps (a
   request of its own, for a tier that calls the next) is built then,
   once per thread, not at set-up. *)
let pool_spawn_servers pool proc ~threads ~name serve =
  for _ = 1 to threads do
    ignore
      (Kernel.spawn pool.p_kern proc ~name
         (fun th ->
           let handler = serve () in
           let continue = ref true in
           while !continue do
             let rq = (Unix_socket.recv pool.p_sock th).Unix_socket.payload in
             (* Run-queue wait before the woken service thread actually
                executes (scheduler imbalance). *)
             if pool.p_stall_mean > 0. then
               Kernel.io_wait pool.p_kern th
                 (Rng.exponential pool.p_rng ~mean:pool.p_stall_mean);
             Kernel.consume pool.p_kern th Breakdown.Kernel event_loop_kernel_ns;
             Kernel.consume pool.p_kern th Breakdown.User_code protocol_user_ns;
             handler th;
             Kernel.consume pool.p_kern th Breakdown.User_code protocol_user_ns;
             ignore (Kernel.wake_one pool.p_kern ~waker:th rq ())
           done))
  done

(* --- the operation body --- *)

(* Request sizes on the two hops (HTTP-ish request to PHP, SQL-ish text to
   the DB). *)
let web_php_bytes = 512

let php_db_bytes = 128

let user kern th ns = Kernel.consume kern th Breakdown.User_code ns

(* Kernel work every configuration pays per operation regardless of the
   IPC mechanism: accepting/answering the client's HTTP connection, page
   faults, timers (the Ideal configuration of Fig. 1 still spends ~16% in
   the kernel). *)
let client_io_kernel_ns = 120_000.

let client_io kern th =
  Kernel.syscall_overhead kern th;
  Kernel.consume kern th Breakdown.Kernel client_io_kernel_ns

(* dIPC crossing: the measured warm proxy cost under application cache
   pressure (Sec. 7.5), executed in place of any kernel involvement. *)
let dipc_crossing kern th =
  Kernel.consume kern th Breakdown.Proxy Costs.oltp_dipc_call_pressure

(* Every source of randomness derives from [seed]: the default of 41
   reproduces the calibrated legacy streams (disk 97, pools 733). *)
let run ?(params_override = None) ?(seed = 41) ?trace ?inject
    ?(drive_until = Engine.run_until) ~config ~db_mode
    ~threads () =
  let p =
    match params_override with
    | Some p -> p
    | None -> default_params ~db_mode ~threads
  in
  let engine = Engine.create () in
  (match trace with Some tr -> Engine.set_trace engine tr | None -> ());
  let kern = Kernel.create engine ~ncpus:p.ncpus in
  (match inject with Some inj -> Kernel.set_inject kern (Some inj) | None -> ());
  let disk = disk_create kern ~seed:(seed + 56) ~mean:p.disk_mean in
  let rng = Rng.create ~seed in
  let latencies = Stats.create () in
  let ops = ref 0 in
  let measuring = ref false in
  let php_chunk = p.php_work /. float_of_int (p.php_db_roundtrips + 1) in
  let db_chunk = p.db_work /. float_of_int p.php_db_roundtrips in
  let web_chunk = p.web_work /. float_of_int (p.web_php_roundtrips + 1) in
  (* The database work for one query, including its share of disk reads. *)
  let db_query th =
    user kern th db_chunk;
    let disk_prob = p.disk_reads_per_op /. float_of_int p.php_db_roundtrips in
    if p.disk_reads_per_op > 0. && Rng.float rng < disk_prob then disk_read disk th
  in
  (* The PHP stage for one request: its compute interleaved with DB
     round trips, via [db_call]. *)
  let php_stage th ~db_call =
    for _ = 1 to p.php_db_roundtrips do
      user kern th php_chunk;
      db_call th
    done;
    user kern th php_chunk
  in
  (* The web stage around PHP. *)
  let web_stage th ~php_call =
    for _ = 1 to p.web_php_roundtrips do
      user kern th web_chunk;
      php_call th
    done;
    user kern th web_chunk
  in
  let record_op start th =
    ignore th;
    if !measuring then begin
      incr ops;
      Stats.add latencies (Engine.now engine -. start)
    end
  in
  (match config with
  | Linux ->
      let web_proc = Kernel.create_process kern ~name:"apache" in
      let php_proc = Kernel.create_process kern ~name:"php-fpm" in
      let db_proc = Kernel.create_process kern ~name:"mariadb" in
      let stall_mean = imbalance_stall_mean ~threads:p.threads in
      let db_pool = pool_create ~stall_mean ~seed:(seed + 692) kern in
      let php_pool = pool_create ~stall_mean ~seed:(seed + 692) kern in
      pool_spawn_servers db_pool db_proc ~threads:p.threads ~name:"db" (fun () ->
          db_query);
      pool_spawn_servers php_pool php_proc ~threads:p.threads ~name:"php" (fun () ->
          let msg = Unix_socket.message ~size:php_db_bytes (Kernel.Sleepq.create ()) in
          let db_call th = pool_call db_pool th msg in
          fun th -> php_stage th ~db_call);
      for _ = 1 to p.threads do
        ignore
          (Kernel.spawn kern web_proc ~name:"web"
             (fun th ->
               let msg =
                 Unix_socket.message ~size:web_php_bytes (Kernel.Sleepq.create ())
               in
               let php_call th = pool_call php_pool th msg in
               while Engine.now engine < p.warmup +. p.duration do
                 let start = Engine.now engine in
                 client_io kern th;
                 web_stage th ~php_call;
                 record_op start th
               done))
      done
  | Dipc | Ideal ->
      let proc = Kernel.create_process kern ~name:"stack" in
      let crossing th = if config = Dipc then dipc_crossing kern th in
      for _ = 1 to p.threads do
        ignore
          (Kernel.spawn kern proc ~name:"op"
             (fun th ->
               while Engine.now engine < p.warmup +. p.duration do
                 let start = Engine.now engine in
                 client_io kern th;
                 web_stage th ~php_call:(fun th ->
                     crossing th;
                     php_stage th ~db_call:(fun th ->
                         crossing th;
                         db_query th;
                         crossing th);
                     crossing th);
                 record_op start th
               done))
      done);
  (* Warm up, reset, measure. *)
  drive_until engine p.warmup;
  Kernel.reset_stats kern;
  measuring := true;
  drive_until engine (p.warmup +. p.duration);
  measuring := false;
  (* Fractions of the window's CPU time.  Idle is elapsed idle time,
     measured by the kernel up to the deadline; kernel time is the busy
     rest after the charged user code.  Idle cannot be wall minus the
     summed charges: they are not elapsed time, since every preemption
     charges the outgoing thread's context switch without advancing the
     clock, and on a saturated machine they exceed the wall. *)
  let wall = p.duration *. float_of_int p.ncpus in
  let idle = ref 0. and user = ref 0. in
  for i = 0 to p.ncpus - 1 do
    idle := !idle +. Kernel.cpu_idle_total kern i;
    user :=
      !user
      +. Breakdown.get (Breakdown.to_figure2 (Kernel.cpu_breakdown kern i))
           Breakdown.User_code
  done;
  let idle = !idle and user = !user in
  let kernel = wall -. idle -. user in
  {
    r_config = config;
    r_threads = p.threads;
    r_ops = !ops;
    r_throughput_opm = float_of_int !ops /. p.duration *. 1e9 *. 60.;
    r_latency_ns = Stats.summary latencies;
    r_user_frac = user /. wall;
    r_kernel_frac = kernel /. wall;
    r_idle_frac = idle /. wall;
  }
