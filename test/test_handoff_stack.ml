(* Constant-stack check for the engine's direct handoff.

   A parking or finishing thread fires the next due event from inside
   its effect handler (Engine's [handoff]).  That chain — handler ->
   handoff -> fire -> thunk -> continue — must be tail calls all the
   way, or every handoff leaves a frame behind and a long run grows the
   stack by hundreds of MB.  The dune rule runs this executable with
   OCAMLRUNPARAM=l=128k (a 1 MB OCaml stack), far below what millions
   of stacked frames would need, so a non-tail handoff dies here with
   Stack_overflow.

   Three phases, each one long handoff chain that never returns to the
   run loop until its heap drains:
   - two threads ping-pong [delay] on the slow (effect) path;
   - two threads ping-pong [suspend]/[resume], each resuming the other
     from inside its own [register];
   - one thread spawns threads that finish, half of them at once (the
     [retc] handoff), half after parking once.

   Run: dune build @test/runtest, or
   OCAMLRUNPARAM=l=128k dune exec test/test_handoff_stack.exe *)

module Engine = Dipc_sim.Engine

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let expect what ~expected actual =
  if actual <> expected then fail "%s: expected %d, got %d" what expected actual

(* Two threads, offset by half a tick, each delaying one tick: the other
   is always due first, so every [delay] takes the effect path and hands
   off to the other thread. *)
let delay_ping_pong rounds =
  let e = Engine.create () in
  let done_ = ref 0 in
  let thread () =
    for _ = 1 to rounds do
      Engine.delay e 1.
    done;
    incr done_
  in
  Engine.spawn e thread;
  Engine.spawn ~at:0.5 e thread;
  Engine.run e;
  expect "delay: threads finished" ~expected:2 !done_;
  (* 2 spawns + one wakeup per delay *)
  expect "delay: events" ~expected:(2 + (2 * rounds)) (Engine.steps e);
  Printf.printf "delay ping-pong: %d slow-path delays\n" (2 * rounds)

(* Each thread parks, and its [register] wakes the other one: one
   suspend and one resume per round trip, the wakeup always the next
   event. *)
let suspend_ping_pong rounds =
  let e = Engine.create () in
  let parked = ref None in
  let wake_other () =
    match !parked with
    | Some w ->
        parked := None;
        Engine.resume w ()
    | None -> ()
  in
  let done_ = ref 0 in
  let thread () =
    for _ = 1 to rounds do
      Engine.suspend (fun w ->
          let other = !parked in
          parked := Some w;
          match other with
          | Some o -> Engine.resume o ()
          | None -> ())
    done;
    wake_other ();
    incr done_
  in
  Engine.spawn e thread;
  Engine.spawn e thread;
  Engine.run e;
  expect "suspend: threads finished" ~expected:2 !done_;
  expect "suspend: pending" ~expected:0 (Engine.pending e);
  Printf.printf "suspend ping-pong: %d suspend/resume round trips\n"
    (2 * rounds)

(* One thread spawns a child per tick.  Even children finish at once,
   so their [retc] hands the CPU straight back to the spawner; odd ones
   park first, so their handler runs above the frame that started
   them. *)
let spawn_and_finish n =
  let e = Engine.create () in
  let finished = ref 0 in
  Engine.spawn e (fun () ->
      for i = 1 to n do
        Engine.spawn e (fun () ->
            if i land 1 = 1 then Engine.delay e 0.5;
            incr finished);
        Engine.delay e 1.
      done);
  Engine.run e;
  expect "spawn: children finished" ~expected:n !finished;
  (* spawner spawn + n child spawns + n spawner wakeups + a wakeup per
     odd child *)
  expect "spawn: events" ~expected:(1 + (2 * n) + ((n + 1) / 2)) (Engine.steps e);
  Printf.printf "spawn and finish: %d threads\n" n

let () =
  delay_ping_pong 1_000_000;
  suspend_ping_pong 500_000;
  spawn_and_finish 100_000
