(* Open / partly-open arrival workload generator.

   The Figure-8 reproduction is a *closed* queueing network: a handful
   of client fibers that immediately re-submit, so offered load is
   capped by the client count and tail latency never sees a queue grow.
   Production traffic is the opposite shape — an open stream of sessions
   arriving whether or not the system keeps up — and is judged on tail
   percentiles.

   Scaling to millions of users rules out one effect-fiber per client:
   a session here is just its remaining request count, an immediate int
   queued in a c-server FIFO queue, so a run costs a few heap operations
   and RNG draws per request, allocates nothing per request, and a
   million sessions simulate in well under a second.  The service
   station models the machine: [servers] simulated CPUs, each request holding one CPU for
   an exponentially distributed service demand whose mean is the
   *measured* cost of one IPC round trip of the primitive under test
   (the caller supplies it — microbench means for sem/pipe/l4/rpc, the
   machine-model call cost for dIPC).  Latency per request is the
   sojourn time (queue wait + service).

   Everything is deterministic in [seed]: each stochastic component
   (arrivals, service demands, session lengths, think times) draws from
   its own splitmix64 stream forked off the seed in a fixed order, and
   bounded integer draws use the rejection-sampled [Rng.int_unbiased]
   (modulo-bias-free, unlike the legacy [Rng.int], which no simulated
   path draws from).  Runs never share mutable state, so sweeps
   shard across domains with byte-identical digests at any --jobs. *)

module Rng = Dipc_sim.Rng
module Heap = Dipc_sim.Heap
module Histogram = Dipc_sim.Histogram

type arrival = Poisson | Bursty | Diurnal

let arrival_name = function
  | Poisson -> "poisson"
  | Bursty -> "bursty"
  | Diurnal -> "diurnal"

let arrival_of_string = function
  | "poisson" -> Some Poisson
  | "bursty" -> Some Bursty
  | "diurnal" -> Some Diurnal
  | _ -> None

type params = {
  seed : int;
  sessions : int;  (* client sessions admitted over the run *)
  servers : int;  (* simulated CPUs serving requests *)
  service_ns : float;  (* mean service demand per request *)
  offered_load : float;  (* rho = request rate * service_ns / servers *)
  arrival : arrival;
  max_extra_reqs : int;
      (* partly-open sessions: each issues 1 + uniform[0, max_extra_reqs]
         requests, with a think pause between consecutive ones *)
  think_ns : float;  (* mean think time within a session *)
}

let default_params ?(seed = 42) ?(sessions = 30_000) ?(servers = 4)
    ?(offered_load = 0.7) ?(arrival = Poisson) ?(max_extra_reqs = 2)
    ?(think_ns = 20_000.) ~service_ns () =
  {
    seed;
    sessions;
    servers;
    service_ns;
    offered_load;
    arrival;
    max_extra_reqs;
    think_ns;
  }

type result = {
  r_sessions : int;
  r_requests : int;
  r_latency : Histogram.t;  (* per-request sojourn time, ns *)
  r_makespan_ns : float;  (* completion time of the last request *)
  r_busy_ns : float;  (* total CPU-busy time across servers *)
  r_digest : string;
}

let utilization r ~servers =
  if r.r_makespan_ns <= 0. then 0.
  else r.r_busy_ns /. (float_of_int servers *. r.r_makespan_ns)

(* Achieved throughput in requests per simulated second. *)
let throughput_rps r =
  if r.r_makespan_ns <= 0. then 0.
  else float_of_int r.r_requests /. r.r_makespan_ns *. 1e9

(* --- arrival processes ---

   [advance] moves [clock.next] in place from one arrival instant to the
   next, drawing only from its own stream.  Rates are in arrivals per
   nanosecond.  Nothing here boxes a float: [clock] is an all-float
   record, stored flat (a [mutable float] field of a mixed record, or a
   [float ref] captured by a closure, boxes a fresh float on every
   store), and no float crosses a call: without flambda, a
   [float -> float] closure boxes its result on every call, and a
   recursive helper its float arguments (2 to 6 minor words per
   request). *)

(* MMPP on/off shape: bursts at 4x the base rate for a fifth of the
   time, a 0.25x trickle otherwise — the time-average rate is exactly
   the base rate (0.2 * 4 + 0.8 * 0.25 = 1).  Phase holding times are
   exponential, measured in base inter-arrival units. *)
let bursty_boost = 4.

let bursty_trickle = 0.25

let bursty_on_mean = 200. (* mean on-phase length, in 1/rate units *)

let bursty_off_mean = 800.

(* Diurnal shape: sinusoidal rate swing of +-80% around the base,
   sampled by thinning against the peak rate.  The period is set so a
   run of [sessions] arrivals spans about three day-night cycles. *)
let diurnal_amp = 0.8

type clock = {
  mutable next : float;  (* the next arrival instant *)
  mutable phase_end : float;  (* Bursty: end of the current phase *)
}

type arrivals = {
  arrival : arrival;
  rng : Rng.t;
  rate : float;
  period : float;  (* Diurnal: length of one day-night cycle *)
  clock : clock;
  mutable on : bool;  (* Bursty: in an on-phase *)
}

let make_arrivals arrival ~rate ~sessions rng =
  {
    arrival;
    rng;
    rate;
    period = float_of_int sessions /. rate /. 3.;
    clock = { next = 0.; phase_end = 0. };
    on = true;
  }

let advance g =
  let c = g.clock and rng = g.rng and rate = g.rate in
  match g.arrival with
  | Poisson -> c.next <- c.next +. Rng.exponential rng ~mean:(1. /. rate)
  | Bursty ->
      let t = ref c.next and searching = ref true in
      while !searching do
        if !t >= c.phase_end then begin
          (* Entering a fresh phase; the first call initialises it. *)
          if c.phase_end > 0. then g.on <- not g.on;
          let mean = if g.on then bursty_on_mean else bursty_off_mean in
          c.phase_end <- !t +. Rng.exponential rng ~mean:(mean /. rate)
        end
        else begin
          let r = rate *. if g.on then bursty_boost else bursty_trickle in
          let t' = !t +. Rng.exponential rng ~mean:(1. /. r) in
          (* An exponential is memoryless: a draw crossing the phase
             boundary restarts from the boundary at the new rate. *)
          if t' <= c.phase_end then begin
            c.next <- t';
            searching := false
          end
          else t := c.phase_end
        end
      done
  | Diurnal ->
      let peak = rate *. (1. +. diurnal_amp) in
      let t = ref c.next in
      let accepted = ref false in
      while not !accepted do
        t := !t +. Rng.exponential rng ~mean:(1. /. peak);
        let rate_t =
          rate
          *. (1. +. (diurnal_amp *. sin (2. *. Float.pi *. !t /. g.period)))
        in
        accepted := Rng.float rng < rate_t /. peak
      done;
      c.next <- !t

(* --- deterministic digest ---

   FNV-1a over the integer run outcome: request/session counts, the
   latency histogram's bucket digest and the makespan's IEEE-754 bits.
   Byte-identical digests mean an identical simulated timeline. *)

let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

let digest_of ~sessions ~requests ~hist ~makespan =
  let h = ref fnv_offset in
  let fold64 v = h := Int64.mul (Int64.logxor !h v) fnv_prime in
  let fold v = fold64 (Int64.of_int v) in
  fold sessions;
  fold requests;
  fold64 (Int64.bits_of_float makespan);
  fold64 (Histogram.digest hist);
  Printf.sprintf "%016Lx" !h

(* --- the service station ---

   Everything the per-request loop touches.  A queued session is only
   its remaining request count, keyed by the instant its next request is
   ready: an immediate payload, so neither a push nor a pop allocates.
   [busy] and [makespan] live in an all-float record, stored flat, like
   the arrival clock. *)

type totals = { mutable busy : float; mutable makespan : float }

type station = {
  service_ns : float;
  think_ns : float;
  rng_service : Rng.t;
  rng_think : Rng.t;
  queue : int Heap.t;
  free : float array;  (* when each server next falls idle *)
  hist : Histogram.t;
  totals : totals;
  mutable requests : int;
}

(* [Bool.to_int], declared here: naming [Bool] links one more stdlib
   unit into every executable, which shifts the benchmark runner's
   host-speed probe (tools/probe_layout.sh). *)
external int_of_bool : bool -> int = "%identity"

(* Serve the request of a session with [left] requests to go, ready at
   [ready], on the earliest-free server (the lowest index on ties);
   queue the session's next request after a think pause.  Inlined into
   both branches of the loop so [ready] is never boxed for a call.  The
   pick is arithmetic, not a branch: which server frees first is
   random, so a branch on it mispredicts often. *)
let[@inline] serve st ready left =
  let free = st.free in
  let srv = ref 0 in
  for i = 1 to Array.length free - 1 do
    srv := !srv + (int_of_bool (free.(i) < free.(!srv)) * (i - !srv))
  done;
  let start = if ready > free.(!srv) then ready else free.(!srv) in
  let svc = Rng.exponential st.rng_service ~mean:st.service_ns in
  let fin = start +. svc in
  free.(!srv) <- fin;
  let totals = st.totals in
  totals.busy <- totals.busy +. svc;
  if fin > totals.makespan then totals.makespan <- fin;
  Histogram.add st.hist (fin -. ready);
  st.requests <- st.requests + 1;
  if left > 1 then
    Heap.push st.queue
      ~time:(fin +. Rng.exponential st.rng_think ~mean:st.think_ns)
      (left - 1)

(* --- the generator/queue loop ---

   The run's four streams are forked off the seed in a fixed order (the
   stream assignment is part of the digest contract): the arrival and
   session-length generators draw from the first and third, the station
   from the other two.

   Admit-and-serve: the admission branch is taken only when the queue
   is empty or its earliest entry is strictly later than [arr_t], and
   arrivals never decrease, so a session queued at [arr_t] would be the
   strict minimum and the very next iteration would pop it.  Serving it
   on the spot skips that push/pop pair; every other entry keeps its
   relative order (the same argument as [Engine.delay_in]), and each
   stream is still drawn in its own order, so the timeline is
   unchanged. *)

let run p =
  if p.sessions <= 0 then invalid_arg "Openload.run: sessions must be positive";
  if p.servers <= 0 then invalid_arg "Openload.run: servers must be positive";
  if p.offered_load <= 0. then
    invalid_arg "Openload.run: offered_load must be positive";
  let root = Rng.create ~seed:p.seed in
  let rng_arrival = Rng.split root in
  let rng_service = Rng.split root in
  let rng_len = Rng.split root in
  let rng_think = Rng.split root in
  let mean_reqs = 1. +. (float_of_int p.max_extra_reqs /. 2.) in
  (* offered_load = request_rate * service / servers, and each session
     contributes [mean_reqs] requests. *)
  let request_rate = p.offered_load *. float_of_int p.servers /. p.service_ns in
  let arrivals =
    make_arrivals p.arrival ~rate:(request_rate /. mean_reqs)
      ~sessions:p.sessions rng_arrival
  in
  let clock = arrivals.clock in
  let st =
    {
      service_ns = p.service_ns;
      think_ns = p.think_ns;
      rng_service;
      rng_think;
      queue = Heap.create ();
      free = Array.make p.servers 0.;
      hist = Histogram.create ();
      totals = { busy = 0.; makespan = 0. };
      requests = 0;
    }
  in
  let queue = st.queue in
  let admitted = ref 0 in
  advance arrivals;
  while !admitted < p.sessions || not (Heap.is_empty queue) do
    let arr_t = if !admitted < p.sessions then clock.next else infinity in
    if (not (Heap.is_empty queue)) && Heap.top_time queue <= arr_t then begin
      let ready = Heap.top_time queue in
      serve st ready (Heap.pop_min queue)
    end
    else begin
      (* Admit the next session; its first request is ready on arrival.
         Draw order (length, then next arrival) is fixed. *)
      let len =
        if p.max_extra_reqs = 0 then 1
        else 1 + Rng.int_unbiased rng_len (p.max_extra_reqs + 1)
      in
      incr admitted;
      serve st arr_t len;
      advance arrivals
    end
  done;
  let { hist; requests; totals = { busy; makespan }; _ } = st in
  {
    r_sessions = p.sessions;
    r_requests = requests;
    r_latency = hist;
    r_makespan_ns = makespan;
    r_busy_ns = busy;
    r_digest = digest_of ~sessions:p.sessions ~requests ~hist ~makespan;
  }

(* Kept only for the benchmark's [open_million] workload, which calls
   it by this name; the open-arrival model is one FIFO station and runs
   serially (DESIGN.md Sec. 14). *)
let run_sharded ?shards:_ p = run p

(* --- saturation knee ---

   Given (offered_load, p99) pairs in ascending load order, the knee is
   the first load whose p99 blows past [factor] times the p99 at the
   lightest load — self-calibrating against the primitive's unloaded
   tail (an exponential service's p99 is ~4.6x its mean even with no
   queueing), so one threshold works for 1 us semaphores and 250 ns
   dIPC calls alike. *)

let knee_factor = 3.

let saturation_knee points =
  match points with
  | [] -> None
  | (_, base_p99) :: _ ->
      List.find_map
        (fun (load, p99) ->
          if p99 >= knee_factor *. base_p99 then Some load else None)
        points
