(* Discrete-event model of a small multiprocessor OS kernel.

   Threads are simulated-time coroutines (Dipc_sim.Engine).  Each CPU is a
   token: a thread must hold its CPU to consume time, releases it when it
   blocks, and the per-CPU run queue plus wake-time CPU selection reproduce
   the scheduling behaviour the paper measures — context-switch and
   page-table-switch costs, IPIs for cross-CPU wakeups, idle-loop entry and
   exit, and scheduler imbalance under high thread counts (Sec. 2.2, 7.4).

   Every nanosecond consumed is attributed to one of the Figure 2 cost
   blocks, per CPU (and in a never-reset whole-kernel total), so
   benchmarks can print the same breakdowns the paper does. *)

module Engine = Dipc_sim.Engine
module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs
module Trace = Dipc_sim.Trace
module Inject = Dipc_sim.Inject

type process = {
  pid : int;
  pname : string;
  mutable aspace : int; (* address-space id; shared for dIPC processes *)
  mutable dipc_enabled : bool;
  fds : (int, string) Hashtbl.t;
  mutable next_fd : int;
  mutable alive : bool;
}

(* The stored form of a value a wake hands its sleeper: see [Sleepq]. *)
type any = { _any : unit }

type thread = {
  tid : int;
  proc : process;
  tname : string;
  mutable cpu : int;
  pinned : bool;
  mutable wake_ipi : bool; (* an IPI was sent to wake us *)
  mutable some_self : thread option;
      (* [Some] of this thread, built once at spawn: every CPU hand-off
         stores it in [cpu.running], and every queue link in [next],
         instead of allocating a fresh one.  Set after the record is
         built rather than by a [let rec], which would allocate the
         record twice (a dummy block, then the real one) on every
         spawn. *)
  mutable next : thread option;
      (* The next thread on the run queue or sleep queue this thread
         waits on: a thread waits on at most one queue at a time, so one
         link field makes both intrusive, and queueing allocates
         nothing. *)
  mutable parker : Engine.parker option; (* built at the first park *)
  mutable gift : any; (* the value of the wake that ended a [block_on] *)
}

(* An intrusive FIFO of threads, linked through [next]: the per-CPU run
   queues and the sleep queues. *)
type fifo = {
  mutable head : thread option;
  mutable tail : thread option;
  mutable length : int;
}

let fifo () = { head = None; tail = None; length = 0 }

let enqueue q th =
  (match q.tail with None -> q.head <- th.some_self | Some last -> last.next <- th.some_self);
  q.tail <- th.some_self;
  q.length <- q.length + 1

let dequeue q =
  match q.head with
  | None -> None
  | Some th as first ->
      q.head <- th.next;
      if th.next == None then q.tail <- None;
      th.next <- None;
      q.length <- q.length - 1;
      first

type cpu = {
  cpu_id : int;
  mutable running : thread option;
  runq : fifo;
  mutable idle : bool; (* idle since [totals.(1)] *)
  (* The idle accumulator and the idle-since time in a 2-slot
     [floatarray] (idle at 0, idle since at 1): mutable float fields in
     this mixed record would box a fresh float per store. *)
  totals : floatarray;
  mutable last_tid : int;
  mutable last_aspace : int;
  cpu_bd : Breakdown.t;
}

type t = {
  engine : Engine.t;
  cpus : cpu array;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable next_aspace : int;
  quantum : float; (* preemption granularity for CPU-bound threads, ns *)
  mutable next_jitter_seed : int;
      (* Per-kernel stream for timing-jitter RNGs (futex path etc.): a
         process-global counter here would leak state between runs and
         break same-seed replay determinism. *)
  mutable inject : Inject.t option;
      (* Fault injector consulted at IPI delivery and quantum boundaries;
         [None] keeps those paths exactly as-is (no RNG draws). *)
  lifetime_bd : Breakdown.t;
      (* Every charge since creation, never reset: the conservation
         reference the invariant checker compares Charge events against
         ([reset_stats] clears the per-CPU breakdowns mid-run, so those
         cannot anchor a whole-trace identity). *)
}

let create engine ~ncpus =
  let cpus =
    Array.init ncpus (fun i ->
        {
          cpu_id = i;
          running = None;
          runq = fifo ();
          idle = true;
          totals = Float.Array.make 2 0.;
          last_tid = -1;
          last_aspace = -1;
          cpu_bd = Breakdown.create ();
        })
  in
  {
    engine;
    cpus;
    next_pid = 1;
    next_tid = 1;
    next_aspace = 1;
    quantum = 100_000.;
    next_jitter_seed = 1;
    inject = None;
    lifetime_bd = Breakdown.create ();
  }

let set_inject t inj = t.inject <- inj

let inject t = t.inject

let lifetime_breakdown t = t.lifetime_bd

let fresh_jitter_seed t =
  let s = t.next_jitter_seed in
  t.next_jitter_seed <- s + 1;
  s

let engine t = t.engine

let ncpus t = Array.length t.cpus

let now t = Engine.now t.engine

(* --- processes --- *)

let create_process t ~name =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let aspace = t.next_aspace in
  t.next_aspace <- t.next_aspace + 1;
  {
    pid;
    pname = name;
    aspace;
    dipc_enabled = false;
    fds = Hashtbl.create 8;
    next_fd = 3;
    alive = true;
  }

(* Join processes into one shared address space (dIPC's shared page table,
   Sec. 6.1.3). *)
let share_address_space ~target ~with_ =
  target.aspace <- with_.aspace;
  target.dipc_enabled <- true;
  with_.dipc_enabled <- true

let alloc_fd proc label =
  let fd = proc.next_fd in
  proc.next_fd <- proc.next_fd + 1;
  Hashtbl.replace proc.fds fd label;
  fd

(* --- cost accounting --- *)

let charge t th category ns =
  let i = Breakdown.category_index category in
  Breakdown.charge_idx t.cpus.(th.cpu).cpu_bd i ns;
  Breakdown.charge_idx t.lifetime_bd i ns;
  let tr = Engine.tracer t.engine in
  if Trace.enabled tr then
    Trace.emit_charge tr ~ts:(now t) ~cpu:th.cpu ~tid:th.tid ~cat:category ~dur:ns

(* A thread event (context switch, IPI, syscall) at the current time.
   Out of line, so the trace's digest fold is compiled once here, not
   into every syscall and wake site; it takes no float, so the call
   boxes nothing. *)
let[@inline never] trace_thread t ~cpu ~tid ~arg kind =
  Trace.emit_thread (Engine.tracer t.engine) ~ts:(now t) ~cpu ~tid ~arg kind

(* --- CPU token management --- *)

(* Start idle accounting from now. *)
let start_idle t cpu =
  cpu.idle <- true;
  Float.Array.unsafe_set cpu.totals 1 (now t)

(* Stop idle accounting; returns how long the CPU idled. *)
let end_idle t cpu =
  if cpu.idle then begin
    let d = now t -. Float.Array.unsafe_get cpu.totals 1 in
    Float.Array.unsafe_set cpu.totals 0 (Float.Array.unsafe_get cpu.totals 0 +. d);
    Breakdown.charge cpu.cpu_bd Breakdown.Idle d;
    Breakdown.charge t.lifetime_bd Breakdown.Idle d;
    let tr = Engine.tracer t.engine in
    if Trace.enabled tr then
      Trace.emit_charge tr ~ts:(now t) ~cpu:cpu.cpu_id ~tid:(-1) ~cat:Breakdown.Idle
        ~dur:d;
    cpu.idle <- false;
    d
  end
  else 0.

(* The idle loop only reaches a deep C-state after sitting idle for a
   while; a same-instant hand-off pays nothing, a short nap pays a shallow
   halt exit. *)
let idle_exit_cost idled =
  if idled <= 0. then 0.
  else if idled < 600. then 100. +. Costs.context_switch
  else Costs.idle_wakeup +. Costs.context_switch

(* Costs of switching this CPU to [th]; charged to the incoming thread.
   [from_idle]: the CPU was free, so it may have idled until now.  It
   ends the idle stretch here, not in [acquire]: passed from there, the
   idle time would be a boxed float, 2 words per uncontended acquire. *)
let switch_in t th ~from_idle =
  let cpu = t.cpus.(th.cpu) in
  let costs = ref 0. in
  let idle_cost = if from_idle then idle_exit_cost (end_idle t cpu) else 0. in
  if idle_cost > 0. then begin
    charge t th Breakdown.Schedule idle_cost;
    costs := !costs +. idle_cost
  end;
  let tr = Engine.tracer t.engine in
  if cpu.last_tid <> th.tid && cpu.last_tid <> -1 then begin
    if Trace.enabled tr then
      trace_thread t ~cpu:th.cpu ~tid:th.tid ~arg:cpu.last_tid Trace.Ctxsw;
    charge t th Breakdown.Schedule Costs.context_switch;
    costs := !costs +. Costs.context_switch
  end;
  if cpu.last_aspace <> th.proc.aspace && cpu.last_aspace <> -1 then begin
    charge t th Breakdown.Page_table Costs.page_table_switch;
    costs := !costs +. Costs.page_table_switch
  end;
  cpu.last_tid <- th.tid;
  cpu.last_aspace <- th.proc.aspace;
  if th.wake_ipi then begin
    th.wake_ipi <- false;
    (* arg 0: the IPI is being handled on the receiving CPU. *)
    if Trace.enabled tr then
      trace_thread t ~cpu:th.cpu ~tid:th.tid ~arg:0 Trace.Ipi;
    charge t th Breakdown.Kernel Costs.ipi_handle;
    costs := !costs +. Costs.ipi_handle
  end;
  if !costs > 0. then Engine.delay_in t.engine !costs

(* Park the calling thread, already linked on the queue its waker will
   take it from: nothing runs between the link and the park. *)
let park th =
  if th.parker == None then th.parker <- Some (Engine.parker ());
  Engine.park ()

(* Resume a thread taken off a queue; raises [Invalid_argument] if it
   is not parked. *)
let unpark th =
  match th.parker with
  | Some p -> Engine.unpark p
  | None -> invalid_arg "Engine.unpark: thread not parked"

(* Acquire the thread's CPU, waiting on its run queue if busy.  Out of
   line, like [block_on]: with no closure left in them, [-inline 200]
   would copy both, and everything they inline, into every blocking
   call site across the kernel, IPC and workload modules (~67 KB of
   code) for no gain on a path that parks. *)
let[@inline never] acquire t th =
  let cpu = t.cpus.(th.cpu) in
  match cpu.running with
  | None ->
      cpu.running <- th.some_self;
      switch_in t th ~from_idle:true
  | Some _ ->
      enqueue cpu.runq th;
      park th;
      (* release/hand-off set [running] to us before resuming. *)
      switch_in t th ~from_idle:false

(* Release the CPU, handing it to the next ready thread if any. *)
let release t th =
  let cpu = t.cpus.(th.cpu) in
  (match cpu.running with
  | Some r when r.tid = th.tid -> ()
  | _ -> invalid_arg "Kernel.release: thread does not hold its CPU");
  cpu.running <- None;
  match dequeue cpu.runq with
  | Some next ->
      cpu.running <- next.some_self;
      unpark next
  | None -> start_idle t cpu

(* Consume CPU time, attributed to [category].  Long stretches are chopped
   into scheduler quanta so ready threads on the same CPU make progress
   (approximating timer preemption). *)
let consume t th category ns =
  (* Single-quantum fast path: no injector means a zero remainder never
     preempts, so a chunk that fits in one quantum is exactly one
     charge + advance (the general loop below computes the same floats:
     [chunk = ns], [remaining = ns -. ns = 0.]). *)
  match t.inject with
  | None when ns > 0. && ns <= t.quantum ->
      charge t th category ns;
      Engine.delay_in t.engine ns
  | _ ->
  let remaining = ref ns in
  while !remaining > 0. do
    let chunk = if !remaining > t.quantum then t.quantum else !remaining in
    charge t th category chunk;
    Engine.delay_in t.engine chunk;
    remaining := !remaining -. chunk;
    let preempt =
      if t.cpus.(th.cpu).runq.length > 0 then
        !remaining > 0.
        ||
        (* Injected: force a switch at the final quantum boundary too,
           exercising resumption from an unexpected scheduling point. *)
        (match t.inject with
        | Some inj -> Inject.force_preempt inj
        | None -> false)
      else false
    in
    if preempt then begin
      (* Preempted: round-robin to the back of the queue. *)
      charge t th Breakdown.Schedule Costs.context_switch;
      release t th;
      acquire t th
    end
  done

(* Charge the syscall entry/exit + dispatch trampoline (Figure 2 blocks 2
   and 3). *)
let syscall_overhead t th =
  if Trace.enabled (Engine.tracer t.engine) then
    trace_thread t ~cpu:th.cpu ~tid:th.tid ~arg:0 Trace.Syscall;
  consume t th Breakdown.Syscall_entry Costs.syscall_entry_exit;
  consume t th Breakdown.Dispatch Costs.syscall_dispatch

(* --- sleep queues: blocking with scheduler integration --- *)

module Sleepq = struct
  (* The sleepers in wake order.  The type parameter is the type of the
     values their wakes hand over. *)
  type 'a q = fifo

  let create () = fifo ()

  let length (q : 'a q) = q.length

  (* The one untyped spot of the sleep queues: a wake stores its value
     in the sleeper's [gift] slot and the sleeper's [block_on] takes it
     out, as the event queue stores its payloads ([Heap.nil]).  It is
     sound because a value enters the slot only through [give] on an
     ['a q] the sleeper waits on, and leaves it only through the [take]
     of that same queue's [block_on]: a thread waits on one queue at a
     time, so nothing else reads or writes the slot in between.  Typed
     alternatives cost a block per wake. *)
  let nil : any = Obj.magic 0

  let give th (v : 'a) = th.gift <- (Obj.magic v : any)

  let take th : 'a =
    let v = th.gift in
    th.gift <- nil;
    Obj.magic v
end

(* Block the calling thread on [q]; returns the value passed by the waker. *)
let[@inline never] block_on t th (q : 'a Sleepq.q) : 'a =
  release t th;
  enqueue q th;
  park th;
  let v = Sleepq.take th in
  acquire t th;
  v

(* Wake one sleeper; performed by [waker_th] (which holds a CPU).  Models
   the IPI when the sleeper's CPU differs from the waker's (Sec. 2.2:
   "going across CPUs ... dominated by the costs of IPIs").  Every
   sleeper, pinned or not, wakes on the CPU it last ran on: cache
   affinity, like CFS without active balancing, which is the source of
   the scheduler imbalance Sec. 7.4 describes. *)
let wake_one t ~waker:waker_th (q : 'a Sleepq.q) (v : 'a) =
  match dequeue q with
  | None -> false
  | Some sleeper ->
      let ipi_delay = ref 0. in
      if sleeper.cpu <> waker_th.cpu then begin
        (* arg: the woken thread's tid (the IPI's logical target). *)
        if Trace.enabled (Engine.tracer t.engine) then
          trace_thread t ~cpu:waker_th.cpu ~tid:waker_th.tid ~arg:sleeper.tid
            Trace.Ipi;
        charge t waker_th Breakdown.Kernel Costs.ipi_send;
        Engine.delay_in t.engine Costs.ipi_send;
        sleeper.wake_ipi <- true;
        (* Injected IPI perturbation: a delayed interrupt delivers late;
           a lost one only lands when the sender's retry timer refires. *)
        match t.inject with
        | Some inj -> (
            match Inject.ipi_outcome inj with
            | Inject.Ipi_ok -> ()
            | Inject.Ipi_delayed d | Inject.Ipi_lost d -> ipi_delay := d)
        | None -> ()
      end;
      Sleepq.give sleeper v;
      if !ipi_delay > 0. then
        Engine.schedule t.engine ~at:(now t +. !ipi_delay) (fun () -> unpark sleeper)
      else unpark sleeper;
      true

(* Wake one sleeper with no running thread behind it (device
   completions, spurious wakeups, timer redelivery): no waker CPU
   exists, so no IPI is modelled — the sleeper just becomes ready and
   re-contends for a CPU. *)
let wake_detached (q : 'a Sleepq.q) (v : 'a) =
  match dequeue q with
  | None -> false
  | Some sleeper ->
      Sleepq.give sleeper v;
      unpark sleeper;
      true

(* Blocking wait for a wall-clock duration (disk, NIC, timer): the CPU is
   released, so it idles or runs other work. *)
let io_wait t th ns =
  release t th;
  Engine.delay_in t.engine ns;
  acquire t th

(* --- thread creation --- *)

let spawn ?(cpu = -1) ?(at = None) t proc ~name body =
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let pinned = cpu >= 0 in
  let th =
    {
      tid;
      proc;
      tname = name;
      cpu = (if pinned then cpu else 0);
      pinned;
      wake_ipi = false;
      some_self = None;
      next = None;
      parker = None;
      gift = Sleepq.nil;
    }
  in
  th.some_self <- Some th;
  let wrapped () =
    (* Initial placement spreads (fork balancing); wakeups keep the CPU
       chosen here. *)
    if not th.pinned then begin
      let load c =
        c.runq.length + (match c.running with Some _ -> 1 | None -> 0)
      in
      let best = ref 0 in
      Array.iter
        (fun c -> if load c < load t.cpus.(!best) then best := c.cpu_id)
        t.cpus;
      th.cpu <- !best
    end;
    acquire t th;
    (try body th
     with exn ->
       release t th;
       raise exn);
    release t th
  in
  let tr = Engine.tracer t.engine in
  if Trace.enabled tr then
    Trace.emit_thread tr
      ~ts:(match at with None -> now t | Some at -> at)
      ~cpu:th.cpu ~tid:th.tid ~arg:proc.pid Trace.Spawn;
  (match at with
  | None -> Engine.spawn t.engine wrapped
  | Some at -> Engine.spawn ~at t.engine wrapped);
  th

(* --- statistics --- *)

let cpu_breakdown t i = t.cpus.(i).cpu_bd

let cpu_idle_total t i =
  let c = t.cpus.(i) in
  Float.Array.unsafe_get c.totals 0
  +. if c.idle then now t -. Float.Array.unsafe_get c.totals 1 else 0.

let reset_stats t =
  Array.iter
    (fun c ->
      Breakdown.clear c.cpu_bd;
      Float.Array.unsafe_set c.totals 0 0.;
      if c.idle then start_idle t c)
    t.cpus
