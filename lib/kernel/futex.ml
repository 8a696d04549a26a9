(* Futex: the kernel half of POSIX semaphores/mutexes (Sec. 2.2's "Sem."
   primitive is "POSIX semaphores (using futex) communicating through a
   shared buffer").

   The userspace fast path (uncontended atomic) is charged by callers; this
   module charges the syscall entry plus the kernel hash-bucket/queue work
   for the slow path. *)

module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs

type t = {
  kern : Kernel.t;
  value : int ref; (* the user-space futex word *)
  sleepers : unit Kernel.Sleepq.q;
  jitter : Dipc_sim.Rng.t;
      (* Real kernels do not execute the futex path in deterministic time
         (bucket-lock contention, cache misses); without this jitter the
         simulation can phase-lock two CPUs into never sleeping, a pattern
         real hardware does not sustain. *)
}

let create kern ~value =
  {
    kern;
    value;
    sleepers = Kernel.Sleepq.create ();
    jitter = Dipc_sim.Rng.create ~seed:(0x5eed + Kernel.fresh_jitter_seed kern);
  }

let word t = t.value

let kernel_path_cost t =
  Costs.futex_kernel_queue *. Dipc_sim.Rng.uniform t.jitter ~lo:0.7 ~hi:1.3

(* FUTEX_WAIT: sleep if the word still holds [expected].  May return
   spuriously under fault injection (as the real FUTEX_WAIT may, per
   futex(2)); callers re-check the word in a loop, so a spurious return
   costs an extra round-trip through the slow path but never breaks the
   protocol. *)
let wait t th ~expected =
  Kernel.syscall_overhead t.kern th;
  Kernel.consume t.kern th Breakdown.Kernel (kernel_path_cost t);
  if !(t.value) = expected then begin
    (match Kernel.inject t.kern with
    | Some inj -> (
        match Dipc_sim.Inject.spurious_wakeup inj with
        | Some d ->
            let eng = Kernel.engine t.kern in
            Dipc_sim.Engine.schedule eng
              ~at:(Dipc_sim.Engine.now eng +. d)
              (fun () -> ignore (Kernel.wake_detached t.sleepers ()))
        | None -> ())
    | None -> ());
    Kernel.block_on t.kern th t.sleepers
  end

(* FUTEX_WAKE: wake up to [n] sleepers; returns how many were woken. *)
let wake t th ~n =
  Kernel.syscall_overhead t.kern th;
  Kernel.consume t.kern th Breakdown.Kernel (kernel_path_cost t);
  let woken = ref 0 in
  while !woken < n && Kernel.wake_one t.kern ~waker:th t.sleepers () do
    incr woken
  done;
  !woken

let waiters t = Kernel.Sleepq.length t.sleepers
