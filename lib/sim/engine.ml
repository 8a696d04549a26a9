(* Discrete-event simulation engine.

   Simulated threads are ordinary OCaml functions that perform effects to
   interact with virtual time.  An effect handler per thread turns blocking
   operations into queued continuations, which keeps workload code
   in direct style (the whole point of using OCaml 5 here: kernel and IPC
   protocol code below reads like the real thing).

   One-shot continuations: every suspended thread is resumed exactly once,
   either by the event queue ([delay]) or by whoever holds its park
   handle ([park]/[unpark]). *)

type t = {
  (* Current virtual time in slot 0 of a 2-slot [floatarray]: a
     [mutable float] field in this mixed record would box a fresh float
     on every store, and the fast delay path and the run loop each store
     it once per event — millions of allocations per simulated second.
     Slot 1 carries the wake time of a [Delay_at] from [delay_in] to its
     handler, so the effect itself is a constant. *)
  now_ : floatarray;
  events : event Heap.t;
  mutable live : int; (* threads spawned and not yet finished *)
  mutable steps : int;
  mutable step_limit : int;
  mutable tracer : Trace.t;
  (* Deadline of the innermost [run_until], infinity outside one: the
     [delay_in] fast path must not carry a thread past it. *)
  mutable horizon : float;
}

(* A queued event.  [fire] matches on it and resumes the continuation
   itself, so a parked thread costs the queue no closure:
   - [Thunk]: a spawn or a [schedule]d callback;
   - [Resume]: a delayed or unparked thread's wakeup.  One cell per
     thread, built at its first slow-path delay or park and reused, its
     continuation overwritten, by every later one: a thread has at most
     one delay or park pending. *)
and event =
  | Thunk of (unit -> unit)
  | Resume of { mutable k : (unit, unit) Effect.Deep.continuation }

(* A thread's park handle, one per thread, built when the thread starts:
   its [Resume] cell (a stand-in until the first slow-path delay or park
   builds it) and whether the thread is parked on it now. *)
type parker = { engine : t; mutable cell : event; mutable parked : bool }

type _ Effect.t +=
  | Delay_at : unit Effect.t (* wake at [now_.(1)] *)
  | Park : unit Effect.t
  | Self : parker Effect.t

let create () =
  {
    now_ = Float.Array.make 2 0.;
    events = Heap.create ();
    live = 0;
    steps = 0;
    step_limit = max_int;
    tracer = Trace.null;
    horizon = infinity;
  }

let set_step_limit t limit = t.step_limit <- limit

let set_trace t tracer = t.tracer <- tracer

let tracer t = t.tracer

let now t = Float.Array.unsafe_get t.now_ 0

let set_now t v = Float.Array.unsafe_set t.now_ 0 v

(* Queue [ev] at [at], clamped to now: the one push of every event kind,
   each announced by a Sched trace event. *)
let[@inline] push t ~at ev =
  let now = Float.Array.unsafe_get t.now_ 0 in
  let at = if at < now then now else at in
  if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:at Trace.Sched;
  Heap.push t.events ~time:at ev

let schedule t ~at f = push t ~at (Thunk f)

exception Step_limit_exceeded

(* Fire the next event: pop the queue minimum, count it, advance [now] to
   its time and run it.  The one firing step, shared by [run],
   [run_until] and the direct handoff below, so the three cannot drift.
   Allocates nothing itself (a thunk may): [top_time]/[pop_min] avoid
   the [Some (time, event)] boxing of [Heap.pop], and they inline here —
   the build compiles without -opaque (DESIGN.md Sec. 7) — so [time]
   stays an unboxed float instead of coming back boxed from an
   out-of-line call.  Every arm of the match ends in a tail call. *)
let[@inline] fire t =
  let time = Heap.top_time t.events in
  let ev = Heap.pop_min t.events in
  t.steps <- t.steps + 1;
  if t.steps > t.step_limit then raise Step_limit_exceeded;
  Float.Array.unsafe_set t.now_ 0 time;
  match ev with
  | Resume r -> Effect.Deep.continue r.k ()
  | Thunk f -> f ()

(* Direct handoff: a thread that has just parked (its [Delay_at] or
   [Park] handler has queued or stashed its continuation) or finished
   ([retc]) fires the next due event itself instead of returning to
   the run loop, which would only pop that same event and fire it.
   [fire] does what the loop does, in the same order, so only the
   stack frame that runs the next event changes: every trace event,
   digest and counter is the same by construction.  What it
   saves is the stack switch back to the loop: a continuation resumed
   from inside the handler costs a fraction of one resumed from the
   loop (DESIGN.md Sec. 7).

   It falls back to the loop (returns) when the queue is empty, when the
   minimum lies past a [run_until] horizon (the event stays queued and
   the loop sets [now] to the deadline) or when firing would trip the
   step limit (the loop raises [Step_limit_exceeded], at the same step
   as without the handoff).

   Constant stack: handler -> [handoff] -> [fire] -> [continue k v]
   (or a thunk) is a chain of tail calls, so each handoff replaces
   the handler frame instead of stacking on it, and a chain of millions
   of handoffs runs in a fixed stack.  Keep it that way — no statement
   after a [handoff t] or [fire]'s match, no [try] around them, or every
   handoff leaves a frame behind (test/test_handoff_stack.ml pins this
   under a 1 MB stack).  A spawn thunk ([exec] -> [match_with]) ends in
   the runtime's fiber start, which OCaml 5.1 also enters and leaves
   without keeping a frame on this stack: the same test spawns 100k
   threads in one chain, half of them parking, in under 16 KB. *)
let handoff t =
  if
    (not (Heap.is_empty t.events))
    && Heap.top_time t.events <= t.horizon
    && t.steps < t.step_limit
  then fire t

(* Stands in for a thread's [Resume] cell until its first slow-path
   delay or park builds it; never queued. *)
let unbuilt = Thunk ignore

(* Run [f] as a simulated thread under the effect handler.  A delay's
   and a park's handlers are options built here, once per thread: the
   constant [Delay_at] and [Park] allocate nothing to perform, their
   handlers nothing to run, and the thread's [Resume] cell nothing to
   queue again, so a slow-path delay or a park allocates only the
   runtime's continuation. *)
let rec exec t f =
  let open Effect.Deep in
  let self = { engine = t; cell = unbuilt; parked = false } in
  (* Store [k] in the thread's [Resume] cell, building it at first use. *)
  let stash k =
    match self.cell with
    | Resume r -> r.k <- k
    | Thunk _ -> self.cell <- Resume { k }
  in
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        stash k;
        push t ~at:(Float.Array.unsafe_get t.now_ 1) self.cell;
        handoff t)
  in
  let on_park =
    Some
      (fun (k : (unit, unit) continuation) ->
        stash k;
        self.parked <- true;
        if Trace.enabled t.tracer then
          Trace.emit_bare t.tracer ~ts:(now t) Trace.Suspend;
        handoff t)
  in
  match_with f ()
    {
      retc =
        (fun () ->
          t.live <- t.live - 1;
          handoff t);
      exnc =
        (fun exn ->
          t.live <- t.live - 1;
          raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay_at -> on_delay
          | Park -> on_park
          | Self -> Some (fun k -> continue k self)
          | _ -> None);
    }

and spawn ?at t f =
  t.live <- t.live + 1;
  let at = match at with None -> now t | Some at -> at in
  if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:at Trace.Spawn;
  schedule t ~at (fun () -> exec t f)

(* --- operations available inside simulated threads --- *)

(* The slow path of every delay: store [at = now + d] in slot 1 of
   [now_], perform the constant [Delay_at] -> the handler emits a Sched
   event at [at] and pushes the thread's [Resume] cell -> [fire] (from
   the handoff or the run loop) pops the queue minimum, bumps [steps],
   sets [now] and resumes.  Nothing is boxed on the way: the continuation
   is the one allocation. *)
let[@inline] delay_at t at =
  Float.Array.unsafe_set t.now_ 1 at;
  Effect.perform Delay_at

let delay t d = if d > 0. then delay_at t (now t +. d)

(* [delay_in t d] = [delay t d], with a fast path that skips the effect
   round trip and the event queue.  When our event
   would be the strict minimum (queue empty or top strictly later — a tie
   loses to the earlier sequence number), nothing can run between push
   and pop, so emitting the same Sched event, bumping [steps] and
   advancing [now] in place is observably identical: same trace stream
   byte for byte, same queue pop order for every other event (eliding a
   push/pop pair preserves the relative insertion order of the rest).
   The guards delegate to the real path whenever popping would cross a
   [run_until] horizon (the event must stay queued) or trip the step
   limit (the raise must come from the run loop, not from inside the
   thread). *)
let delay_in t d =
  if d > 0. then begin
    let at = Float.Array.unsafe_get t.now_ 0 +. d in
    if
      at <= t.horizon
      && t.steps < t.step_limit
      && (Heap.is_empty t.events || Heap.top_time t.events > at)
    then begin
      if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:at Trace.Sched;
      t.steps <- t.steps + 1;
      Float.Array.unsafe_set t.now_ 0 at
    end
    else delay_at t at
  end

(* The calling thread's park handle: one effect round trip, so callers
   fetch it once and keep it. *)
let parker () = Effect.perform Self

let park () = Effect.perform Park

(* Queue a parked thread's own [Resume] cell at the current time, as a
   slow-path delay does, with no allocation.  Out of line: its inlined
   [push] would be copied into every caller, across the kernel and the
   workloads. *)
let[@inline never] unpark p =
  if not p.parked then invalid_arg "Engine.unpark: thread not parked";
  p.parked <- false;
  let t = p.engine in
  if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:(now t) Trace.Resume;
  push t ~at:(now t) p.cell

(* --- driving the simulation --- *)

let run t =
  while not (Heap.is_empty t.events) do
    fire t
  done

(* Run until virtual time [deadline]; events after it stay queued. *)
let run_until t deadline =
  t.horizon <- deadline;
  Fun.protect ~finally:(fun () -> t.horizon <- infinity) @@ fun () ->
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.events then continue := false
    else if Heap.top_time t.events > deadline then begin
      set_now t deadline;
      continue := false
    end
    else fire t
  done

let pending t = Heap.length t.events

let queue_pushes t = (Heap.pushes t.events, Heap.far_pushes t.events)

let steps t = t.steps

let live t = t.live
