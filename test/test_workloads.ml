(* Tests for the evaluation workloads: the OLTP model (Figs. 1 and 8), the
   driver-isolation model (Fig. 7) and the Sec. 7.5 sensitivity models. *)

module O = Dipc_workloads.Oltp
module N = Dipc_workloads.Netpipe
module S = Dipc_workloads.Sensitivity
module M = Dipc_workloads.Microbench

(* Short OLTP runs keep the suite fast while preserving ordering. *)
let quick_params ~db_mode ~threads =
  {
    (O.default_params ~db_mode ~threads) with
    O.warmup = 150_000_000.;
    duration = 350_000_000.;
  }

let run_quick ~config ~db_mode ~threads =
  O.run
    ~params_override:(Some (quick_params ~db_mode ~threads))
    ~config ~db_mode ~threads ()

let test_oltp_ordering_in_memory () =
  let threads = 16 in
  let lx = run_quick ~config:O.Linux ~db_mode:O.In_memory ~threads in
  let dp = run_quick ~config:O.Dipc ~db_mode:O.In_memory ~threads in
  let id = run_quick ~config:O.Ideal ~db_mode:O.In_memory ~threads in
  Alcotest.(check bool) "dIPC much faster than Linux" true
    (dp.O.r_throughput_opm > 2.5 *. lx.O.r_throughput_opm);
  Alcotest.(check bool) "dIPC at least 90% of ideal" true
    (dp.O.r_throughput_opm > 0.90 *. id.O.r_throughput_opm);
  Alcotest.(check bool) "ideal not slower than dIPC - noise" true
    (id.O.r_throughput_opm > 0.95 *. dp.O.r_throughput_opm)

let test_oltp_idle_collapse () =
  (* Sec. 7.4: idle time drops dramatically (24% -> 1% in the paper). *)
  let threads = 16 in
  let lx = run_quick ~config:O.Linux ~db_mode:O.In_memory ~threads in
  let dp = run_quick ~config:O.Dipc ~db_mode:O.In_memory ~threads in
  Alcotest.(check bool) "Linux idles" true (lx.O.r_idle_frac > 0.15);
  Alcotest.(check bool) "dIPC nearly idle-free" true (dp.O.r_idle_frac < 0.05)

let test_oltp_linux_scales_with_threads () =
  (* The baseline needs many threads to fill the system (Fig. 8). *)
  let lo = run_quick ~config:O.Linux ~db_mode:O.In_memory ~threads:16 in
  let hi = run_quick ~config:O.Linux ~db_mode:O.In_memory ~threads:256 in
  Alcotest.(check bool) "more threads help Linux" true
    (hi.O.r_throughput_opm > 1.5 *. lo.O.r_throughput_opm)

let test_oltp_dipc_peaks_early () =
  (* dIPC reaches its peak with little concurrency. *)
  let at4 = run_quick ~config:O.Dipc ~db_mode:O.In_memory ~threads:4 in
  let at16 = run_quick ~config:O.Dipc ~db_mode:O.In_memory ~threads:16 in
  Alcotest.(check bool) "near peak by 4-16 threads" true
    (at4.O.r_throughput_opm > 0.85 *. at16.O.r_throughput_opm)

let test_oltp_on_disk_lower () =
  let threads = 16 in
  let mem = run_quick ~config:O.Dipc ~db_mode:O.In_memory ~threads in
  let disk = run_quick ~config:O.Dipc ~db_mode:O.On_disk ~threads in
  Alcotest.(check bool) "disk-bound is slower" true
    (disk.O.r_throughput_opm < mem.O.r_throughput_opm)

let test_oltp_breakdown_sane () =
  let r = run_quick ~config:O.Linux ~db_mode:O.In_memory ~threads:16 in
  let total = r.O.r_user_frac +. r.O.r_kernel_frac +. r.O.r_idle_frac in
  Alcotest.(check bool) "fractions sum to ~1" true (Float.abs (total -. 1.) < 0.05);
  Alcotest.(check bool) "latency measured" true (r.O.r_latency_ns.Dipc_sim.Stats.s_count > 0);
  Alcotest.(check bool) "ops counted" true (r.O.r_ops > 10)

(* Fig. 1's saturated Ideal run: no fraction of CPU time may leave
   [0, 1].  Its summed charges exceed the wall (every preemption
   charges a context switch that takes no time), so idle must be
   elapsed idle time, not wall minus charges. *)
let test_oltp_fractions_in_range () =
  let r = O.run ~config:O.Ideal ~db_mode:O.In_memory ~threads:96 () in
  List.iter
    (fun (name, f) ->
      if not (f >= 0. && f <= 1.) then Alcotest.failf "%s fraction %.17g" name f)
    [ ("user", r.O.r_user_frac); ("kernel", r.O.r_kernel_frac); ("idle", r.O.r_idle_frac) ]

let test_oltp_crossings_per_op () =
  (* The operation structure matches the paper's 211 crossings (Sec. 7.5),
     within rounding. *)
  let p = O.default_params ~db_mode:O.In_memory ~threads:4 in
  let crossings = O.crossings_per_op p in
  Alcotest.(check bool) "~211 crossings" true (crossings >= 200 && crossings <= 220)

(* --- netpipe / Fig. 7 --- *)

let measured_costs () =
  (* Use the calibrated kernel-model numbers; measuring live in the test
     keeps the check honest. *)
  let sem = (M.run ~warmup:10 ~iters:40 ~same_cpu:true M.Sem).M.mean_ns in
  let pipe = (M.run ~warmup:10 ~iters:40 ~same_cpu:true M.Pipe).M.mean_ns in
  {
    N.sem_roundtrip = sem;
    pipe_roundtrip = pipe;
    dipc_proc_call = 105.;
    dipc_same_call = 14.;
  }

let test_netpipe_latency_ordering () =
  let c = measured_costs () in
  let at bytes mech = N.latency_overhead_pct c mech ~bytes in
  List.iter
    (fun bytes ->
      let dipc = at bytes N.Dipc_same
      and dproc = at bytes N.Dipc_proc
      and kern = at bytes N.Kernel_driver
      and sem = at bytes N.Sem_ipc
      and pipe = at bytes N.Pipe_ipc in
      Alcotest.(check bool) "dIPC < dIPC+proc" true (dipc < dproc);
      Alcotest.(check bool) "dIPC+proc < kernel" true (dproc < kern);
      Alcotest.(check bool) "kernel < sem" true (kern < sem);
      Alcotest.(check bool) "sem < pipe" true (sem < pipe))
    [ 1; 64; 1024; 4096 ]

let test_netpipe_paper_bands () =
  let c = measured_costs () in
  (* Sec. 7.3: dIPC ~1%, syscalls ~10%, IPC >100% latency overhead. *)
  let dipc = N.latency_overhead_pct c N.Dipc_same ~bytes:1 in
  let kern = N.latency_overhead_pct c N.Kernel_driver ~bytes:1 in
  let sem = N.latency_overhead_pct c N.Sem_ipc ~bytes:1 in
  Alcotest.(check bool) "dIPC ~1%" true (dipc < 2.5);
  Alcotest.(check bool) "kernel ~10%" true (kern > 4. && kern < 16.);
  Alcotest.(check bool) "IPC >= ~100%" true (sem > 60.)

let test_netpipe_bandwidth_overheads () =
  let c = measured_costs () in
  (* "overheads above 60% for a 4KB transfer in the IPC scenarios". *)
  let sem = N.bandwidth_overhead_pct c N.Sem_ipc ~bytes:4096 in
  let dipc = N.bandwidth_overhead_pct c N.Dipc_same ~bytes:4096 in
  Alcotest.(check bool) "IPC bandwidth loss > 40%" true (sem > 40.);
  Alcotest.(check bool) "dIPC bandwidth loss tiny" true (dipc < 5.)

(* --- sensitivity (Sec. 7.5) --- *)

let test_sensitivity_crossing_margin () =
  (* With the paper's numbers, the margin is ~14x. *)
  let a =
    S.crossing ~calls_per_op:211 ~call_ns:252.
      ~linux_op_ns:(3.2e6 *. 2.13) (* average speedup over Linux *)
      ~dipc_op_ns:3.2e6
  in
  Alcotest.(check bool) "margin an order of magnitude" true
    (a.S.ca_slowdown_margin > 5. && a.S.ca_slowdown_margin < 100.);
  Alcotest.(check bool) "max call cost above current" true
    (a.S.ca_max_call_ns > a.S.ca_call_ns)

let test_sensitivity_capability_loads () =
  let a =
    S.capability_loads ~cross_access_frac:0.02 ~accesses_per_op:1.5e6
      ~dipc_op_ns:3.2e6 ~speedup:1.81
  in
  Alcotest.(check bool) "overhead in band (~12%)" true
    (a.S.cl_overhead_frac > 0.005 && a.S.cl_overhead_frac < 0.30);
  Alcotest.(check bool) "speedup survives (paper: 1.59x)" true
    (a.S.cl_residual_speedup > 1.2)

let suites =
  [
    ( "workloads.oltp",
      [
        Alcotest.test_case "ordering in-memory (Fig. 8)" `Slow test_oltp_ordering_in_memory;
        Alcotest.test_case "idle collapse (Fig. 1)" `Slow test_oltp_idle_collapse;
        Alcotest.test_case "Linux scales with threads" `Slow test_oltp_linux_scales_with_threads;
        Alcotest.test_case "dIPC peaks early" `Slow test_oltp_dipc_peaks_early;
        Alcotest.test_case "on-disk slower" `Slow test_oltp_on_disk_lower;
        Alcotest.test_case "breakdown sane" `Slow test_oltp_breakdown_sane;
        Alcotest.test_case "crossings per op" `Quick test_oltp_crossings_per_op;
        Alcotest.test_case "fractions in [0, 1] (Fig. 1 Ideal)" `Slow
          test_oltp_fractions_in_range;
      ] );
    ( "workloads.netpipe",
      [
        Alcotest.test_case "latency ordering (Fig. 7)" `Quick test_netpipe_latency_ordering;
        Alcotest.test_case "paper bands (Fig. 7)" `Quick test_netpipe_paper_bands;
        Alcotest.test_case "bandwidth overheads (Fig. 7)" `Quick test_netpipe_bandwidth_overheads;
      ] );
    ( "workloads.sensitivity",
      [
        Alcotest.test_case "crossing margin (Sec. 7.5)" `Quick test_sensitivity_crossing_margin;
        Alcotest.test_case "capability loads (Sec. 7.5)" `Quick test_sensitivity_capability_loads;
      ] );
  ]
