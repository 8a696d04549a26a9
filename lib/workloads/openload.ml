(* Open / partly-open arrival workload generator (ROADMAP item 1).

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
module Shard = Dipc_sim.Shard

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

   Each returns the next arrival instant after [t], drawing only from
   its own stream.  Rates are in arrivals per nanosecond. *)

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

let make_arrivals arrival ~rate ~sessions rng =
  match arrival with
  | Poisson ->
      let mean = 1. /. rate in
      fun t -> t +. Rng.exponential rng ~mean
  | Bursty ->
      let on = ref true in
      let phase_end = ref 0. in
      let phase_mean b = (if b then bursty_on_mean else bursty_off_mean) /. rate in
      let rec next t =
        if t >= !phase_end then begin
          (* Entering a fresh phase; the first call initialises it. *)
          if !phase_end > 0. then on := not !on;
          phase_end := t +. Rng.exponential rng ~mean:(phase_mean !on);
          next t
        end
        else begin
          let r = rate *. if !on then bursty_boost else bursty_trickle in
          let t' = t +. Rng.exponential rng ~mean:(1. /. r) in
          (* An exponential is memoryless: a draw crossing the phase
             boundary restarts from the boundary at the new rate. *)
          if t' <= !phase_end then t' else next !phase_end
        end
      in
      fun t -> next t
  | Diurnal ->
      let period = float_of_int sessions /. rate /. 3. in
      let rate_at t =
        rate *. (1. +. (diurnal_amp *. sin (2. *. Float.pi *. t /. period)))
      in
      let peak = rate *. (1. +. diurnal_amp) in
      let rec next t =
        let t' = t +. Rng.exponential rng ~mean:(1. /. peak) in
        if Rng.float rng < rate_at t' /. peak then t' else next t'
      in
      fun t -> next t

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
  fold64 (Int64.of_string ("0x" ^ Histogram.digest_hex hist));
  Printf.sprintf "%016Lx" !h

(* --- the service station ---

   Everything the per-request loop touches, shared by [run] and the
   sharded station.  A queued session is only its remaining request
   count, keyed by the instant its next request is ready: an immediate
   payload, so neither a push nor a pop allocates.  [busy] and
   [makespan] live in an all-float record, stored flat, because a
   [float ref] captured by a closure (or a [mutable float] field of a
   mixed record) boxes a fresh float on every store. *)

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

(* Serve the request of a session with [left] requests to go, ready at
   [ready], on the earliest-free server; queue the session's next
   request after a think pause.  Inlined into both loops so [ready] is
   never boxed for a call. *)
let[@inline] serve st ready left =
  let free = st.free in
  let srv = ref 0 in
  for i = 1 to Array.length free - 1 do
    if free.(i) < free.(!srv) then srv := i
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

let result p st =
  let { hist; requests; totals = { busy; makespan }; _ } = st in
  {
    r_sessions = p.sessions;
    r_requests = requests;
    r_latency = hist;
    r_makespan_ns = makespan;
    r_busy_ns = busy;
    r_digest = digest_of ~sessions:p.sessions ~requests ~hist ~makespan;
  }

(* The run's four streams, forked off the seed in a fixed order (the
   stream assignment is part of the digest contract): the arrival and
   session-length generators draw from the first and third, the
   station from the other two. *)
let setup ?capacity name (p : params) =
  if p.sessions <= 0 then invalid_arg (name ^ ": sessions must be positive");
  if p.servers <= 0 then invalid_arg (name ^ ": servers must be positive");
  if p.offered_load <= 0. then
    invalid_arg (name ^ ": offered_load must be positive");
  let root = Rng.create ~seed:p.seed in
  let rng_arrival = Rng.split root in
  let rng_service = Rng.split root in
  let rng_len = Rng.split root in
  let rng_think = Rng.split root in
  let mean_reqs = 1. +. (float_of_int p.max_extra_reqs /. 2.) in
  (* offered_load = request_rate * service / servers, and each session
     contributes [mean_reqs] requests. *)
  let request_rate = p.offered_load *. float_of_int p.servers /. p.service_ns in
  let session_rate = request_rate /. mean_reqs in
  let next_arrival =
    make_arrivals p.arrival ~rate:session_rate ~sessions:p.sessions rng_arrival
  in
  let session_len () =
    if p.max_extra_reqs = 0 then 1
    else 1 + Rng.int_unbiased rng_len (p.max_extra_reqs + 1)
  in
  let station =
    {
      service_ns = p.service_ns;
      think_ns = p.think_ns;
      rng_service;
      rng_think;
      queue = Heap.create ?capacity ();
      free = Array.make p.servers 0.;
      hist = Histogram.create ();
      totals = { busy = 0.; makespan = 0. };
      requests = 0;
    }
  in
  (next_arrival, session_len, station)

(* --- the generator/queue loop ---

   Admit-and-serve: the admission branch is taken only when the queue
   is empty or its earliest entry is strictly later than [arr_t], and
   arrivals never decrease, so a session queued at [arr_t] would be the
   strict minimum and the very next iteration would pop it.  Serving it
   on the spot skips that push/pop pair; every other entry keeps its
   relative order (the same argument as [Engine.delay_in]), and each
   stream is still drawn in its own order, so the timeline is
   unchanged. *)

let run p =
  let next_arrival, session_len, st = setup "Openload.run" p in
  let queue = st.queue in
  let admitted = ref 0 in
  let next_arr = ref (next_arrival 0.) in
  while !admitted < p.sessions || not (Heap.is_empty queue) do
    let arr_t = if !admitted < p.sessions then !next_arr else infinity in
    if (not (Heap.is_empty queue)) && Heap.top_time queue <= arr_t then begin
      let ready = Heap.top_time queue in
      serve st ready (Heap.pop_min queue)
    end
    else begin
      (* Admit the next session; its first request is ready on arrival.
         Draw order (length, then next arrival) is fixed. *)
      let len = session_len () in
      incr admitted;
      serve st arr_t len;
      next_arr := next_arrival arr_t
    end
  done;
  result p st

(* --- sharded execution (ROADMAP item 2) ---

   [run] above is the serial reference; [run_sharded] decomposes the
   same simulation along its only dependence cut into two shards under
   the conservative coordinator (DESIGN.md Sec. 14):

     shard 0, the admission source: owns the arrival and session-length
       streams.  Its messages are admissions timestamped at the arrival
       instant, so its lookahead is 0 and the window bound is its next
       undrawn arrival.  Nobody ever sends to it, so it is input-free
       and may legally run a whole batch of admissions *ahead* of the
       window.  That pipelining overlaps only the source's own work,
       measured at 5-10% of the serial run's, so it cannot buy much.

     shard 1, the service station: owns the ready-queue heap, the
       free-server array, the service and think streams and the
       histogram.  It consumes admissions at barriers and never emits,
       so its lookahead is infinite.

   Determinism: each stochastic stream is drawn by exactly one shard in
   the same per-stream order as the serial loop (arrival/length in
   admission order, service/think in heap-pop order), and the station
   consumes its inbox — which barrier-merge delivers in arrival order —
   through a cursor interleaved with the heap under the serial loop's
   own [ready <= arr_t] comparison, admitting (and, like [run], serving
   on the spot) each arrival exactly when the serial loop would.  The
   station therefore performs the *identical* sequence of heap pushes
   and pops (same seqnos, same tie resolutions) as [run]: digest equality is by
   construction, not merely almost-sure, and the heap stays at the
   serial run's in-flight size instead of swallowing whole batches
   (pre-pushing the batch was measured to triple the heap depth and
   double the run's wall clock).  The gates pin it: test_shard.ml, the
   pinned open_* cells, CI's --shards 1 vs 2 byte-diff.

   The model has exactly one cut, so [shards] above 2 cap at 2: extra
   shards would own nothing.  (The arrival process is a sequential
   recurrence — it cannot split — and moving the histogram out of the
   station would ship one message per request, costing more than the
   bucketing it offloads.) *)

let batch_sessions = 8192

let run_sharded ?(shards = 2) ?par ?jobs p =
  (* A second domain can only overlap admission with service, so the
     default uses one only on a machine with a second core; on a
     single-core host the same sharded protocol runs on one domain —
     byte-identical either way, [par] overrides in both directions.  On
     a 2-core VM two domains have measured 0.9-1.2x the serial run's
     speed (EXPERIMENTS.md, "Open-arrival station"). *)
  let par =
    match par with
    | Some b -> b
    | None -> Dipc_sim.Parallel.default_jobs () > 1
  in
  if shards <= 1 then run p
  else begin
    let next_arrival, session_len, st =
      setup ~capacity:256 "Openload.run_sharded" p
    in
    (* shard 0: admission source *)
    let admitted = ref 0 in
    let next_arr = ref (next_arrival 0.) in
    let source =
      {
        Shard.st_next =
          (fun () -> if !admitted < p.sessions then !next_arr else infinity);
        st_lookahead = 0.;
        st_step =
          (fun ~inbox_at:_ ~inbox_pay:_ ~inbox_len:_ ~upto:_ ~emit ->
            let n0 = !admitted in
            while !admitted < p.sessions && !admitted - n0 < batch_sessions do
              let arr_t = !next_arr in
              (* Draw order (length, then next arrival) as in [run].  The
                 payload is the session length, the same immediate int
                 the station queues, so the message path allocates no
                 session (shipping a record was measured to promote
                 every session to the major heap). *)
              let len = session_len () in
              incr admitted;
              emit ~dst:1 ~at:arr_t len;
              next_arr := next_arrival arr_t
            done;
            !admitted - n0);
      }
    in
    (* shard 1: service station *)
    let queue = st.queue in
    let station =
      {
        Shard.st_next =
          (fun () ->
            if Heap.is_empty queue then infinity else Heap.top_time queue);
        st_lookahead = infinity;
        st_step =
          (fun ~inbox_at ~inbox_pay ~inbox_len ~upto ~emit:_ ->
            (* The serial generator/queue loop verbatim, with the inbox
               cursor standing in for lazy admission: an arrival is
               admitted (and served on the spot) exactly when [run]
               would admit it, so the push and pop sequences (and their
               tie-breaking seqnos) are identical to the serial run's. *)
            let cursor = ref 0 in
            let progressed = ref 0 in
            let continue = ref true in
            while !continue do
              let arr_t =
                if !cursor < inbox_len then inbox_at.(!cursor) else infinity
              in
              if (not (Heap.is_empty queue)) && Heap.top_time queue <= arr_t
              then begin
                let ready = Heap.top_time queue in
                if ready > upto then continue := false
                else begin
                  serve st ready (Heap.pop_min queue);
                  incr progressed
                end
              end
              else if !cursor >= inbox_len || arr_t > upto then
                continue := false
              else begin
                serve st arr_t inbox_pay.(!cursor);
                incr cursor;
                incr progressed
              end
            done;
            (* The admission source's zero lookahead gates the window at
               its next undrawn arrival, so every delivered arrival lies
               inside the window; bank any leftovers all the same to
               keep the stepper total for other bound derivations. *)
            while !cursor < inbox_len do
              Heap.push queue ~time:inbox_at.(!cursor) inbox_pay.(!cursor);
              incr cursor;
              incr progressed
            done;
            !progressed);
      }
    in
    Shard.run ~par ?jobs (Shard.create [| source; station |]);
    result p st
  end

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
