(* Tests for the OS kernel model: CPU tokens, scheduling, cost accounting,
   futexes, pipes and UNIX sockets. *)

module Engine = Dipc_sim.Engine
module Trace = Dipc_sim.Trace
module Breakdown = Dipc_sim.Breakdown
module Costs = Dipc_sim.Costs
module Kernel = Dipc_kernel.Kernel
module Futex = Dipc_kernel.Futex
module Pipe = Dipc_kernel.Pipe
module Unix_socket = Dipc_kernel.Unix_socket

let make ?(ncpus = 2) () =
  let e = Engine.create () in
  (e, Kernel.create e ~ncpus)

let test_consume_advances_time () =
  let e, k = make () in
  let p = Kernel.create_process k ~name:"p" in
  let finished = ref 0. in
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"t" (fun th ->
         Kernel.consume k th Breakdown.User_code 1000.;
         finished := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "time advanced" 1000. !finished

let test_cpu_token_serializes () =
  let e, k = make ~ncpus:1 () in
  let p = Kernel.create_process k ~name:"p" in
  let order = ref [] in
  for i = 1 to 2 do
    ignore
      (Kernel.spawn ~cpu:0 k p ~name:"t" (fun th ->
           Kernel.consume k th Breakdown.User_code 50.;
           order := (i, Engine.now e) :: !order))
  done;
  Engine.run e;
  match List.rev !order with
  | [ (1, t1); (2, t2) ] ->
      Alcotest.(check bool) "serialized" true (t2 >= t1 +. 50.)
  | _ -> Alcotest.fail "wrong completion order"

let test_parallel_cpus () =
  let e, k = make ~ncpus:2 () in
  let p = Kernel.create_process k ~name:"p" in
  let times = ref [] in
  for i = 0 to 1 do
    ignore
      (Kernel.spawn ~cpu:i k p ~name:"t" (fun th ->
           Kernel.consume k th Breakdown.User_code 100.;
           times := Engine.now e :: !times))
  done;
  Engine.run e;
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) "ran in parallel" 100. t)
    !times

let test_preemption_quantum () =
  (* Two CPU-bound threads on one CPU interleave at quantum granularity
     rather than running to completion. *)
  let e, k = make ~ncpus:1 () in
  let p = Kernel.create_process k ~name:"p" in
  let first_done = ref 0. and second_started = ref infinity in
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"a" (fun th ->
         Kernel.consume k th Breakdown.User_code 500_000.;
         first_done := Engine.now e));
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"b" (fun th ->
         second_started := Engine.now e;
         Kernel.consume k th Breakdown.User_code 500_000.));
  Engine.run e;
  Alcotest.(check bool) "b started before a finished" true
    (!second_started < !first_done)

let test_futex_wait_wake () =
  let e, k = make ~ncpus:2 () in
  let p = Kernel.create_process k ~name:"p" in
  let word = ref 0 in
  let f = Futex.create k ~value:word in
  let woken_at = ref 0. in
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"waiter" (fun th ->
         Futex.wait f th ~expected:0;
         woken_at := Engine.now e));
  ignore
    (Kernel.spawn ~cpu:1 ~at:(Some 10_000.) k p ~name:"waker" (fun th ->
         word := 1;
         ignore (Futex.wake f th ~n:1)));
  Engine.run e;
  Alcotest.(check bool) "woken after the wake" true (!woken_at >= 10_000.)

let test_futex_value_mismatch_returns () =
  let e, k = make () in
  let p = Kernel.create_process k ~name:"p" in
  let word = ref 5 in
  let f = Futex.create k ~value:word in
  let returned = ref false in
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"t" (fun th ->
         Futex.wait f th ~expected:0;
         returned := true));
  Engine.run e;
  Alcotest.(check bool) "EAGAIN path" true !returned

let test_pipe_blocking_and_bytes () =
  let e, k = make ~ncpus:2 () in
  let p = Kernel.create_process k ~name:"p" in
  let pipe = Pipe.create ~capacity:1024 k in
  let read_done = ref 0. and write_done = ref 0. in
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"reader" (fun th ->
         Pipe.read pipe th ~bytes:2048;
         read_done := Engine.now e));
  ignore
    (Kernel.spawn ~cpu:1 ~at:(Some 1000.) k p ~name:"writer" (fun th ->
         Pipe.write pipe th ~bytes:2048;
         write_done := Engine.now e));
  Engine.run e;
  Alcotest.(check bool) "reader finished" true (!read_done > 0.);
  Alcotest.(check int) "buffer drained" 0 (Pipe.buffered pipe)

let test_pipe_writer_blocks_when_full () =
  let e, k = make ~ncpus:2 () in
  let p = Kernel.create_process k ~name:"p" in
  let pipe = Pipe.create ~capacity:100 k in
  let write_done = ref infinity in
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"writer" (fun th ->
         Pipe.write pipe th ~bytes:300;
         write_done := Engine.now e));
  ignore
    (Kernel.spawn ~cpu:1 ~at:(Some 50_000.) k p ~name:"reader" (fun th ->
         Pipe.read pipe th ~bytes:300));
  Engine.run e;
  Alcotest.(check bool) "writer had to wait for the reader" true
    (!write_done >= 50_000.)

let test_unix_socket_order () =
  let e, k = make ~ncpus:2 () in
  let p = Kernel.create_process k ~name:"p" in
  let sock = Unix_socket.create k in
  let got = ref [] in
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"rx" (fun th ->
         for _ = 1 to 3 do
           let v = (Unix_socket.recv sock th).Unix_socket.payload in
           got := v :: !got
         done));
  ignore
    (Kernel.spawn ~cpu:1 ~at:(Some 100.) k p ~name:"tx" (fun th ->
         List.iter (fun v -> Unix_socket.send sock th ~size:8 v) [ 1; 2; 3 ]));
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_idle_accounting () =
  let e, k = make ~ncpus:1 () in
  let p = Kernel.create_process k ~name:"p" in
  ignore
    (Kernel.spawn ~cpu:0 ~at:(Some 10_000.) k p ~name:"t" (fun th ->
         Kernel.consume k th Breakdown.User_code 100.));
  Engine.run e;
  Alcotest.(check bool) "idle before first thread" true
    (Kernel.cpu_idle_total k 0 >= 10_000.)

let test_cross_cpu_wake_charges_ipi () =
  let e, k = make ~ncpus:2 () in
  let p = Kernel.create_process k ~name:"p" in
  let q = Kernel.Sleepq.create () in
  ignore
    (Kernel.spawn ~cpu:1 k p ~name:"sleeper" (fun th -> Kernel.block_on k th q));
  ignore
    (Kernel.spawn ~cpu:0 ~at:(Some 1_000.) k p ~name:"waker" (fun th ->
         ignore (Kernel.wake_one k ~waker:th q ())));
  Engine.run e;
  let kernel0 = Breakdown.get (Kernel.cpu_breakdown k 0) Breakdown.Kernel in
  let kernel1 = Breakdown.get (Kernel.cpu_breakdown k 1) Breakdown.Kernel in
  Alcotest.(check bool) "IPI send on waker CPU" true (kernel0 >= Costs.ipi_send);
  Alcotest.(check bool) "IPI handling on target CPU" true (kernel1 >= Costs.ipi_handle)

(* An unpinned sleeper wakes on the CPU it last ran on (cache affinity,
   the source of the Sec. 7.4 scheduler imbalance), even when that CPU
   is busy and another sits idle; the cross-CPU waker pays the IPI. *)
let test_unpinned_wake_keeps_last_cpu () =
  let e, k = make ~ncpus:3 () in
  let p = Kernel.create_process k ~name:"p" in
  let q = Kernel.Sleepq.create () in
  let finished = ref 0. in
  (* CPU 0 is busy when the sleeper is placed, so it lands on CPU 1. *)
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"busy" (fun th ->
         Kernel.consume k th Breakdown.User_code 500.));
  ignore
    (Kernel.spawn k p ~name:"sleeper" (fun th ->
         Kernel.block_on k th q;
         Kernel.consume k th Breakdown.User_code 777.;
         finished := Engine.now e));
  ignore
    (Kernel.spawn ~cpu:1 ~at:(Some 100.) k p ~name:"hog" (fun th ->
         Kernel.consume k th Breakdown.User_code 300_000.));
  ignore
    (Kernel.spawn ~cpu:0 ~at:(Some 1_000.) k p ~name:"waker" (fun th ->
         ignore (Kernel.wake_one k ~waker:th q ())));
  Engine.run e;
  let user i = Breakdown.get (Kernel.cpu_breakdown k i) Breakdown.User_code in
  Alcotest.(check bool) "sleeper ran after the wake" true (!finished > 1_000.);
  Alcotest.(check (float 1e-9)) "resumed on its last CPU" (300_000. +. 777.)
    (user 1);
  Alcotest.(check (float 1e-9)) "idle CPU left alone" 0. (user 2);
  Alcotest.(check (float 1e-9)) "waker charged the IPI send" Costs.ipi_send
    (Breakdown.get (Kernel.cpu_breakdown k 0) Breakdown.Kernel)

let test_page_table_switch_on_process_change () =
  let e, k = make ~ncpus:1 () in
  let p1 = Kernel.create_process k ~name:"p1" in
  let p2 = Kernel.create_process k ~name:"p2" in
  ignore
    (Kernel.spawn ~cpu:0 k p1 ~name:"a" (fun th ->
         Kernel.consume k th Breakdown.User_code 10.));
  ignore
    (Kernel.spawn ~cpu:0 k p2 ~name:"b" (fun th ->
         Kernel.consume k th Breakdown.User_code 10.));
  Engine.run e;
  Alcotest.(check bool) "page-table switch charged" true
    (Breakdown.get (Kernel.cpu_breakdown k 0) Breakdown.Page_table
    >= Costs.page_table_switch)

let test_shared_address_space_no_pt_switch () =
  let e, k = make ~ncpus:1 () in
  let p1 = Kernel.create_process k ~name:"p1" in
  let p2 = Kernel.create_process k ~name:"p2" in
  Kernel.share_address_space ~target:p2 ~with_:p1;
  ignore
    (Kernel.spawn ~cpu:0 k p1 ~name:"a" (fun th ->
         Kernel.consume k th Breakdown.User_code 10.));
  ignore
    (Kernel.spawn ~cpu:0 k p2 ~name:"b" (fun th ->
         Kernel.consume k th Breakdown.User_code 10.));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "no page-table switch in a shared space" 0.
    (Breakdown.get (Kernel.cpu_breakdown k 0) Breakdown.Page_table)

let test_syscall_overhead_categories () =
  let e, k = make ~ncpus:1 () in
  let p = Kernel.create_process k ~name:"p" in
  ignore
    (Kernel.spawn ~cpu:0 k p ~name:"t" (fun th -> Kernel.syscall_overhead k th));
  Engine.run e;
  let bd = Kernel.cpu_breakdown k 0 in
  Alcotest.(check (float 1e-9)) "entry/exit" Costs.syscall_entry_exit
    (Breakdown.get bd Breakdown.Syscall_entry);
  Alcotest.(check (float 1e-9)) "dispatch" Costs.syscall_dispatch
    (Breakdown.get bd Breakdown.Dispatch)

let test_fd_table () =
  let _, k = make () in
  let p = Kernel.create_process k ~name:"p" in
  let fd1 = Kernel.alloc_fd p "socket" in
  let fd2 = Kernel.alloc_fd p "file" in
  Alcotest.(check bool) "distinct fds" true (fd1 <> fd2);
  Alcotest.(check bool) "fds start after stdio" true (fd1 >= 3)

(* Allocation per park.  Two threads on CPUs 0 and 1 ping-pong through
   two sleep queues ([block_on]/[wake_one], a cross-CPU IPI per wake),
   while three CPU-bound threads contend for CPU 0's run queue and are
   preempted at every quantum.  The untraced run's minor words are
   divided by its parks, counted as the Suspend events of a traced
   replay (the same seedless schedule).  A park costs the runtime's
   continuation and no kernel or engine block. *)
let park_scenario ?trace () =
  let e, k = make ~ncpus:2 () in
  Option.iter (Engine.set_trace e) trace;
  let p = Kernel.create_process k ~name:"p" in
  let qa = Kernel.Sleepq.create () and qb = Kernel.Sleepq.create () in
  let turn = ref 0 in
  let rounds = 2_000 in
  let player ~cpu ~mine ~own ~other =
    ignore
      (Kernel.spawn ~cpu k p ~name:"player" (fun th ->
           for _ = 1 to rounds do
             while !turn <> mine do
               Kernel.block_on k th own
             done;
             Kernel.consume k th Breakdown.User_code 100.;
             turn := 1 - mine;
             ignore (Kernel.wake_one k ~waker:th other ())
           done))
  in
  player ~cpu:0 ~mine:0 ~own:qa ~other:qb;
  player ~cpu:1 ~mine:1 ~own:qb ~other:qa;
  for _ = 1 to 3 do
    ignore
      (Kernel.spawn ~cpu:0 k p ~name:"hog" (fun th ->
           for _ = 1 to 20 do
             Kernel.consume k th Breakdown.User_code 300_000.
           done))
  done;
  let w0 = Gc.minor_words () in
  Engine.run e;
  Gc.minor_words () -. w0

let test_park_allocation () =
  let words = park_scenario () in
  let tr = Trace.create ~capacity:16 () in
  let parks = ref 0 in
  Trace.set_sink tr
    (Some (fun ev -> if ev.Trace.e_kind = Trace.Suspend then incr parks));
  ignore (park_scenario ~trace:tr ());
  Alcotest.(check bool) "the scenario parked" true (!parks > 4_000);
  let per_park = words /. float_of_int !parks in
  if per_park > 6. then
    Alcotest.failf "%.2f minor words per park over %d parks (bound 6)" per_park
      !parks

(* --- intrusive queues against a [Queue] model ---

   A random script of operations on two sleep queues and a futex, one
   operation per millisecond so each settles before the next.  A block
   spawns a fresh unpinned thread that sleeps on its queue (or in
   [Futex.wait]) and, once woken, records its id and the value its wake
   handed over; a wake spawns a thread that wakes one sleeper with the
   operation's index as the value.  The model is a [Queue] of sleeper
   ids per queue: every wake must pick the model's head and hand it the
   value, a wake of an empty queue must report false, and after every
   operation [Sleepq.length] and [Futex.waiters] must equal the model's
   lengths. *)
type queue_op = Block of int | Wake of int | Detached of int

let queue_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun q -> Block q) (int_bound 2));
        (3, map (fun q -> Wake q) (int_bound 2));
        (1, map (fun q -> Detached q) (int_bound 1));
      ])

let show_queue_op = function
  | Block q -> Printf.sprintf "Block %d" q
  | Wake q -> Printf.sprintf "Wake %d" q
  | Detached q -> Printf.sprintf "Detached %d" q

let run_queue_script ops =
  let e, k = make ~ncpus:2 () in
  let p = Kernel.create_process k ~name:"p" in
  (* Queues 0 and 1 are sleep queues; queue 2 is the futex. *)
  let qs = [| Kernel.Sleepq.create (); Kernel.Sleepq.create () |] in
  let fx = Futex.create k ~value:(ref 0) in
  let woken = ref [] and reported = ref [] and lengths = ref [] in
  let observe () =
    lengths :=
      (Kernel.Sleepq.length qs.(0), Kernel.Sleepq.length qs.(1), Futex.waiters fx)
      :: !lengths
  in
  List.iteri
    (fun i op ->
      let at = Some (float_of_int (i + 1) *. 1_000_000.) in
      ignore
        (Kernel.spawn ~at k p ~name:"op" (fun th ->
             (match op with
             | Block 2 ->
                 ignore
                   (Kernel.spawn k p ~name:"sleeper" (fun th ->
                        Futex.wait fx th ~expected:0;
                        woken := (i, -1) :: !woken))
             | Block q ->
                 ignore
                   (Kernel.spawn k p ~name:"sleeper" (fun th ->
                        let v = Kernel.block_on k th qs.(q) in
                        woken := (i, v) :: !woken))
             | Wake 2 -> reported := (Futex.wake fx th ~n:1 = 1) :: !reported
             | Wake q -> reported := Kernel.wake_one k ~waker:th qs.(q) i :: !reported
             | Detached q -> reported := Kernel.wake_detached qs.(q) i :: !reported);
             Kernel.consume k th Breakdown.User_code 100_000.;
             observe ())))
    ops;
  Engine.run e;
  (List.rev !woken, List.rev !reported, List.rev !lengths)

let model_queue_script ops =
  let qs = Array.init 3 (fun _ -> Queue.create ()) in
  let woken = ref [] and reported = ref [] and lengths = ref [] in
  List.iteri
    (fun i op ->
      (match op with
      | Block q -> Queue.add i qs.(q)
      | Wake q | Detached q -> (
          match Queue.take_opt qs.(q) with
          | Some sleeper ->
              woken := (sleeper, if q = 2 then -1 else i) :: !woken;
              reported := true :: !reported
          | None -> reported := false :: !reported));
      lengths := (Queue.length qs.(0), Queue.length qs.(1), Queue.length qs.(2)) :: !lengths)
    ops;
  (List.rev !woken, List.rev !reported, List.rev !lengths)

let prop_queues_match_model =
  QCheck.Test.make ~name:"sleep queues and futex match a Queue model" ~count:200
    QCheck.(make ~print:(Print.list show_queue_op) Gen.(list_size (int_bound 40) queue_op_gen))
    (fun ops -> run_queue_script ops = model_queue_script ops)

(* Waking a thread that is not parked is a protocol error, not a lost
   wakeup: it raises.  The thread here is running (inside a delay). *)
let test_unpark_running_raises () =
  let e = Engine.create () in
  let handle = ref None in
  Engine.spawn e (fun () ->
      handle := Some (Engine.parker ());
      Engine.delay e 10.);
  Engine.spawn ~at:5. e (fun () ->
      match !handle with
      | None -> Alcotest.fail "no handle"
      | Some p ->
          Alcotest.check_raises "unpark of a delayed thread"
            (Invalid_argument "Engine.unpark: thread not parked") (fun () ->
              Engine.unpark p));
  Engine.run e;
  (* Parked once, unparked once: a second unpark raises too. *)
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      handle := Some (Engine.parker ());
      Engine.park ());
  Engine.spawn ~at:5. e (fun () ->
      let p = Option.get !handle in
      Engine.unpark p;
      Alcotest.check_raises "second unpark"
        (Invalid_argument "Engine.unpark: thread not parked") (fun () ->
          Engine.unpark p));
  Engine.run e;
  Alcotest.(check int) "the parked thread finished" 0 (Engine.live e)

let suites =
  [
    ( "kernel.sched",
      [
        Alcotest.test_case "consume advances time" `Quick test_consume_advances_time;
        Alcotest.test_case "cpu token serializes" `Quick test_cpu_token_serializes;
        Alcotest.test_case "parallel cpus" `Quick test_parallel_cpus;
        Alcotest.test_case "preemption quantum" `Quick test_preemption_quantum;
        Alcotest.test_case "idle accounting" `Quick test_idle_accounting;
        Alcotest.test_case "cross-cpu wake IPIs" `Quick test_cross_cpu_wake_charges_ipi;
        Alcotest.test_case "unpinned wake keeps last cpu" `Quick
          test_unpinned_wake_keeps_last_cpu;
        Alcotest.test_case "page-table switch" `Quick test_page_table_switch_on_process_change;
        Alcotest.test_case "shared aspace skips pt switch" `Quick
          test_shared_address_space_no_pt_switch;
        Alcotest.test_case "syscall categories" `Quick test_syscall_overhead_categories;
        Alcotest.test_case "fd table" `Quick test_fd_table;
        Alcotest.test_case "park allocates only its continuation" `Quick
          test_park_allocation;
      ] );
    ( "kernel.futex",
      [
        Alcotest.test_case "wait/wake" `Quick test_futex_wait_wake;
        Alcotest.test_case "value mismatch" `Quick test_futex_value_mismatch_returns;
      ] );
    ( "kernel.pipe",
      [
        Alcotest.test_case "blocking + bytes" `Quick test_pipe_blocking_and_bytes;
        Alcotest.test_case "writer blocks when full" `Quick test_pipe_writer_blocks_when_full;
      ] );
    ( "kernel.unix_socket",
      [ Alcotest.test_case "fifo order" `Quick test_unix_socket_order ] );
    ( "kernel.queues",
      [
        Alcotest.test_case "unpark of an unparked thread raises" `Quick
          test_unpark_running_raises;
        QCheck_alcotest.to_alcotest prop_queues_match_model;
      ] );
  ]
