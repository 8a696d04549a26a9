(* Tests for the OS kernel model: CPU tokens, scheduling, cost accounting,
   futexes, pipes and UNIX sockets. *)

module Engine = Dipc_sim.Engine
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
           let v, _ = Unix_socket.recv sock th in
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
  ]
