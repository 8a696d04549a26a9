(* Discrete-event simulation engine.

   Simulated threads are ordinary OCaml functions that perform effects to
   interact with virtual time.  An effect handler per thread turns blocking
   operations into queued continuations, which keeps workload code
   in direct style (the whole point of using OCaml 5 here: kernel and IPC
   protocol code below reads like the real thing).

   One-shot continuations: every suspended thread is resumed exactly once,
   either by the event queue ([delay]) or by whoever holds its waker
   ([suspend]/[resume]). *)

type t = {
  (* Current virtual time, in a 1-slot [floatarray]: a [mutable float]
     field in this mixed record would box a fresh float on every store,
     and the fast delay path and the run loop each store it once per
     event — millions of allocations per simulated second. *)
  now_ : floatarray;
  events : (unit -> unit) Heap.t;
  mutable live : int; (* threads spawned and not yet finished *)
  mutable steps : int;
  mutable step_limit : int;
  mutable tracer : Trace.t;
  (* Deadline of the innermost [run_until], infinity outside one: the
     [delay_in] fast path must not carry a thread past it. *)
  mutable horizon : float;
}

type 'a waker = { mutable fired : bool; engine : t; deliver : 'a -> unit }

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : ('a waker -> unit) -> 'a Effect.t
  | Now : float Effect.t

let create () =
  {
    now_ = Float.Array.make 1 0.;
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

let schedule t ~at f =
  let now = Float.Array.unsafe_get t.now_ 0 in
  let at = if at < now then now else at in
  if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:at Trace.Sched;
  Heap.push t.events ~time:at f

exception Step_limit_exceeded

(* Fire the next event: pop the queue minimum, count it, advance [now] to
   its time and run its thunk.  The one firing step, shared by [run],
   [run_until] and the direct handoff below, so the three cannot drift.
   Allocates nothing itself (the thunk may): [top_time]/[pop_min] avoid
   the [Some (time, thunk)] boxing of [Heap.pop], and they inline here —
   the build compiles without -opaque (DESIGN.md Sec. 7) — so [time]
   stays an unboxed float instead of coming back boxed from an
   out-of-line call.  [thunk ()] is a tail call. *)
let[@inline] fire t =
  let time = Heap.top_time t.events in
  let thunk = Heap.pop_min t.events in
  t.steps <- t.steps + 1;
  if t.steps > t.step_limit then raise Step_limit_exceeded;
  Float.Array.unsafe_set t.now_ 0 time;
  thunk ()

(* Direct handoff: a thread that has just parked (its [Delay] or
   [Suspend] handler has queued its continuation or handed out its
   waker) or finished ([retc]) fires the next due event itself instead
   of returning to the run loop, which would only pop that same event
   and fire it.  [fire] does what the loop does, in the same order, so
   only the stack frame that runs the next thunk changes: every trace
   event, digest and counter is the same by construction.  What it
   saves is the stack switch back to the loop: a continuation resumed
   from inside the handler costs a fraction of one resumed from the
   loop (DESIGN.md Sec. 7).

   It falls back to the loop (returns) when the queue is empty, when the
   minimum lies past a [run_until] horizon (the event stays queued and
   the loop sets [now] to the deadline) or when firing would trip the
   step limit (the loop raises [Step_limit_exceeded], at the same step
   as without the handoff).

   Constant stack: handler -> [handoff] -> [fire] -> thunk ->
   [continue k v] is a chain of tail calls, so each handoff replaces
   the handler frame instead of stacking on it, and a chain of millions
   of handoffs runs in a fixed stack.  Keep it that way — no statement
   after a [handoff t] or [thunk ()], no [try] around them, or every
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

(* Run [f] as a simulated thread under the effect handler. *)
let rec exec t f =
  let open Effect.Deep in
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
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  schedule t ~at:(now t +. d) (fun () -> continue k ());
                  handoff t)
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if Trace.enabled t.tracer then
                    Trace.emit_bare t.tracer ~ts:(now t) Trace.Suspend;
                  let waker =
                    {
                      fired = false;
                      engine = t;
                      deliver =
                        (fun v ->
                          if Trace.enabled t.tracer then
                            Trace.emit_bare t.tracer ~ts:(now t) Trace.Resume;
                          schedule t ~at:(now t) (fun () -> continue k v));
                    }
                  in
                  register waker;
                  handoff t)
          | Now -> Some (fun (k : (a, unit) continuation) -> continue k (now t))
          | _ -> None);
    }

and spawn ?at t f =
  t.live <- t.live + 1;
  let at = match at with None -> now t | Some at -> at in
  if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:at Trace.Spawn;
  schedule t ~at (fun () -> exec t f)

(* --- operations available inside simulated threads --- *)

let delay d = if d > 0. then Effect.perform (Delay d) else ()

(* [delay_in t d] = [delay d] for a thread running inside engine [t],
   with a fast path that skips the effect round trip and the event queue.

   The slow path is: perform Delay -> [schedule] emits a Sched event at
   [at = now + d] and pushes the continuation -> [fire] (from the
   handoff or the run loop) pops the queue minimum, bumps [steps], sets
   [now] and resumes.  When our event
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
    else Effect.perform (Delay d)
  end

let current_time () = Effect.perform Now

(* Suspend the calling thread; [register] receives a waker that must be
   fired exactly once (firing twice raises). *)
let suspend register =
  Effect.perform
    (Suspend
       (fun waker ->
         register waker))

let resume waker v =
  if waker.fired then invalid_arg "Engine.resume: waker fired twice";
  waker.fired <- true;
  waker.deliver v

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
