(* Benchmark suite: regenerates every table and figure of the paper's
   evaluation (EuroSys'17, Vilanova et al.).  [bin/dipc_cli.ml] is the
   command-line front end ([run], [suite], [compare]); this library
   holds the experiments and the cell registry so the test suite can
   link them directly (the golden-digest corpus reruns the 37 pinned
   cells in dune runtest).

   Absolute numbers come from the calibrated simulation substrate (see
   DESIGN.md); the quantities to compare against the paper are the ratios
   and shapes, which EXPERIMENTS.md records side by side.

   Every traced experiment optionally runs with the online invariant
   checker attached ([check]) and/or a seeded fault injector installed
   ([inject_seed]): injection perturbs the timeline (different digests,
   same protocol outcomes), and the checker must stay silent either
   way. *)

module Costs = Dipc_sim.Costs
module Breakdown = Dipc_sim.Breakdown
module Stats = Dipc_sim.Stats
module Parallel = Dipc_sim.Parallel
module Types = Dipc_core.Types
module Scenario = Dipc_core.Scenario
module Entry = Dipc_core.Entry
module Proxy = Dipc_core.Proxy
module Isolation = Dipc_core.Isolation
module Archcmp = Dipc_hw.Archcmp
module M = Dipc_workloads.Microbench
module O = Dipc_workloads.Oltp
module N = Dipc_workloads.Netpipe
module S = Dipc_workloads.Sensitivity

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

(* --- measured dIPC costs shared by several experiments ---

   A mutex-protected memo rather than [lazy]: experiments reach this
   from concurrent runner domains, and forcing a lazy from two domains
   at once raises [CamlinternalLazy.Undefined].  The measurement is
   deterministic, so whichever domain computes first stores the same
   value any other would. *)

(* Warm per-call cost of each Fig. 5 dIPC configuration, ns:
   same-process or cross-process ([proc]), Low or High policy, and the
   cross-process ones again with the optimised TLS switch. *)
type dipc_costs = {
  low_same : float;
  high_same : float;
  low_proc : float;
  high_proc : float;
  low_proc_tls : float;
  high_proc_tls : float;
}

let dipc_costs_mutex = Mutex.create ()

let dipc_costs_memo = ref None

let dipc_costs () =
  Mutex.protect dipc_costs_mutex (fun () ->
      match !dipc_costs_memo with
      | Some c -> c
      | None ->
          let m kind = (Scenario.measure kind).Stats.s_mean in
          let high = Types.props_high in
          let low_same = m (Scenario.make ~same_process:true ()) in
          let high_same =
            m (Scenario.make ~same_process:true ~caller_props:high ~callee_props:high ())
          in
          let low_proc = m (Scenario.make ()) in
          let high_proc = m (Scenario.make ~caller_props:high ~callee_props:high ()) in
          let low_proc_tls = m (Scenario.make ~tls_optimized:true ()) in
          let high_proc_tls =
            m (Scenario.make ~tls_optimized:true ~caller_props:high ~callee_props:high ())
          in
          let c =
            { low_same; high_same; low_proc; high_proc; low_proc_tls; high_proc_tls }
          in
          dipc_costs_memo := Some c;
          c)

(* ================= Figure 1 ================= *)

let fig1 () =
  header
    "Figure 1: OLTP web stack time breakdown, Linux (process isolation)\n\
     vs Ideal (unsafe single process); in-memory DB, 96 threads";
  let threads = 96 in
  let run config = O.run ~config ~db_mode:O.In_memory ~threads () in
  let lx = run O.Linux and id = run O.Ideal in
  let show (r : O.result) =
    Printf.printf
      "  %-14s avg op latency %7.2f ms | user %4.1f%%  kernel %4.1f%%  idle %4.1f%%\n"
      (O.config_name r.O.r_config)
      (r.O.r_latency_ns.Stats.s_mean /. 1e6)
      (100. *. r.O.r_user_frac) (100. *. r.O.r_kernel_frac)
      (100. *. r.O.r_idle_frac)
  in
  show lx;
  show id;
  Printf.printf "  IPC overhead: Ideal runs %.2fx faster than Linux (paper: 1.92x)\n"
    (id.O.r_throughput_opm /. lx.O.r_throughput_opm);
  Printf.printf "  (paper breakdown: Linux 51%%/23%%/24%%, Ideal 81%%/16%%/1%%)\n%!"

(* ================= Figure 2 ================= *)

let fig2 () =
  header
    "Figure 2: time breakdown of IPC primitives (1-byte argument)\n\
     blocks: user / syscall+swapgs+sysret / dispatch / kernel / sched / page table / idle";
  let show name (r : M.result) =
    Printf.printf "  %-22s total %7.1f ns\n" name r.M.mean_ns;
    Array.iteri
      (fun i bd ->
        if Breakdown.total bd > 1. then begin
          Printf.printf "    CPU %d:" (i + 1);
          List.iter
            (fun (c, v) -> Printf.printf "  %s=%.0f" (Breakdown.category_name c) v)
            (Breakdown.to_list bd);
          print_newline ()
        end)
      r.M.per_cpu
  in
  Printf.printf "  (function call: %.1f ns; empty syscall: %.1f ns)\n"
    Costs.function_call Costs.syscall_total;
  List.iter
    (fun (p, same) ->
      let tag = if same then "(=CPU)" else "(!=CPU)" in
      show (M.primitive_name p ^ " " ^ tag) (M.run ~same_cpu:same p))
    [
      (M.Sem, true); (M.Sem, false);
      (M.L4, true); (M.L4, false);
      (M.Local_rpc, true); (M.Local_rpc, false);
    ];
  flush stdout

(* ================= Table 1 ================= *)

let table1 () =
  header
    "Table 1: best-case round-trip domain switch (S) and bulk data\n\
     communication (D, 4 KiB) on different architectures";
  List.iter
    (fun r ->
      Printf.printf "  %-16s S: %-56s = %7.1f ns\n" (Archcmp.arch_name r.Archcmp.row_arch)
        (Archcmp.ops_summary r.Archcmp.switch)
        r.Archcmp.switch_cost;
      Printf.printf "  %-16s D: %-56s = %7.1f ns\n" ""
        (Archcmp.ops_summary r.Archcmp.data)
        r.Archcmp.data_cost)
    (Archcmp.table ~bytes:4096);
  flush stdout

(* ================= Figure 5 ================= *)

let fig5 () =
  header "Figure 5: performance of synchronous calls (1-byte argument)";
  let { low_same; high_same; low_proc; high_proc; low_proc_tls; high_proc_tls } =
    dipc_costs ()
  in
  let row name ns = Printf.printf "  %-28s %8.1f ns  (%6.0fx func call)\n" name ns (ns /. Costs.function_call) in
  row "Function call" Costs.function_call;
  row "Syscall" Costs.syscall_total;
  row "dIPC - Low (=CPU)" low_same;
  row "dIPC - High (=CPU)" high_same;
  let sem_s = (M.run ~same_cpu:true M.Sem).M.mean_ns in
  let sem_d = (M.run ~same_cpu:false M.Sem).M.mean_ns in
  let pipe_s = (M.run ~same_cpu:true M.Pipe).M.mean_ns in
  let pipe_d = (M.run ~same_cpu:false M.Pipe).M.mean_ns in
  let l4_s = (M.run ~same_cpu:true M.L4).M.mean_ns in
  let rpc_s = (M.run ~same_cpu:true M.Local_rpc).M.mean_ns in
  let rpc_d = (M.run ~same_cpu:false M.Local_rpc).M.mean_ns in
  let tcp_s = (M.run ~same_cpu:true M.Tcp_rpc_prim).M.mean_ns in
  let urpc = (M.run ~same_cpu:false M.User_rpc_prim).M.mean_ns in
  row "Sem. (=CPU)" sem_s;
  row "Sem. (!=CPU)" sem_d;
  row "Pipe (=CPU)" pipe_s;
  row "Pipe (!=CPU)" pipe_d;
  row "L4 (=CPU)" l4_s;
  row "dIPC +proc - Low (=CPU)" low_proc;
  row "dIPC +proc - High (=CPU)" high_proc;
  row "Local RPC (=CPU)" rpc_s;
  row "Local RPC (!=CPU)" rpc_d;
  row "TCP RPC (=CPU) [extension]" tcp_s;
  row "dIPC - User RPC (!=CPU)" urpc;
  Printf.printf "\n  Headline ratios (paper values in parentheses):\n";
  Printf.printf "    dIPC vs local RPC       : %6.2fx  (64.12x)\n" (rpc_s /. high_proc);
  Printf.printf "    dIPC vs L4 IPC          : %6.2fx  (8.87x)\n" (l4_s /. high_proc);
  Printf.printf "    dIPC+proc High vs Sem.  : %6.2fx  (14.16x)\n" (sem_s /. high_proc);
  Printf.printf "    dIPC+proc Low vs RPC    : %6.2fx  (120.67x)\n" (rpc_s /. low_proc);
  Printf.printf "    asymmetric policy range : %6.2fx  (up to 8.47x)\n"
    (high_same /. low_same);
  Printf.printf "    TLS-switch headroom     : %5.2fx / %5.2fx  (1.54x-3.22x)\n%!"
    (low_proc /. low_proc_tls) (high_proc /. high_proc_tls)

(* ================= Figure 6 ================= *)

let fig6 () =
  header
    "Figure 6: added execution time vs argument size (consumer-producer\n\
     synchronous call; baseline = function call with the same payload)";
  let { low_same; high_same; low_proc; high_proc; _ } = dipc_costs () in
  let added prim bytes =
    (M.run ~bytes ~warmup:10 ~iters:60 ~same_cpu:false prim).M.mean_ns
    -. M.baseline_payload_ns bytes
  in
  let sizes = [ 1; 16; 256; 4096; 32768; 262144; 1048576 ] in
  Printf.printf
    "  %-10s %12s %12s %12s %12s %12s %12s %12s\n" "size[B]" "Syscall" "Sem(!=)"
    "Pipe(!=)" "RPC(!=)" "dIPC-Low" "dIPC-High" "dIPC-URPC";
  List.iter
    (fun bytes ->
      (* dIPC passes the argument by reference: its added time is the call
         overhead, independent of size. *)
      Printf.printf "  %-10d %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f\n"
        bytes Costs.syscall_total (added M.Sem bytes) (added M.Pipe bytes)
        (added M.Local_rpc bytes) low_same high_same
        (added M.User_rpc_prim bytes))
    sizes;
  Printf.printf
    "  (L1$ boundary at %d B, L2$ at %d B; dIPC flat, copies grow: the\n\
    \   'distance grows with size' effect; +proc variants add %.0f/%.0f ns)\n%!"
    Costs.l1_size Costs.l2_size low_proc high_proc

(* ================= Figure 7 ================= *)

let netpipe_costs () =
  let { low_proc; low_same; _ } = dipc_costs () in
  {
    N.sem_roundtrip = (M.run ~same_cpu:true M.Sem).M.mean_ns;
    pipe_roundtrip = (M.run ~same_cpu:true M.Pipe).M.mean_ns;
    dipc_proc_call = low_proc;
    dipc_same_call = low_same;
  }

let fig7 () =
  header
    "Figure 7: latency and bandwidth overheads of isolating the\n\
     Infiniband user-level driver (netpipe model)";
  let c = netpipe_costs () in
  let mechs = [ N.Pipe_ipc; N.Sem_ipc; N.Kernel_driver; N.Dipc_proc; N.Dipc_same ] in
  let sizes = [ 1; 4; 16; 64; 256; 1024; 4096 ] in
  Printf.printf "  latency overhead [%%]:\n  %-10s" "size[B]";
  List.iter (fun m -> Printf.printf " %16s" (N.mechanism_name m)) mechs;
  print_newline ();
  List.iter
    (fun bytes ->
      Printf.printf "  %-10d" bytes;
      List.iter
        (fun m -> Printf.printf " %16.1f" (N.latency_overhead_pct c m ~bytes))
        mechs;
      print_newline ())
    sizes;
  Printf.printf "\n  bandwidth overhead [%%]:\n  %-10s" "size[B]";
  List.iter (fun m -> Printf.printf " %16s" (N.mechanism_name m)) mechs;
  print_newline ();
  List.iter
    (fun bytes ->
      Printf.printf "  %-10d" bytes;
      List.iter
        (fun m -> Printf.printf " %16.1f" (N.bandwidth_overhead_pct c m ~bytes))
        mechs;
      print_newline ())
    sizes;
  Printf.printf
    "  (paper: only dIPC sustains ~1%% latency overhead; syscalls ~10%%;\n\
    \   IPC >100%% latency and >60%% bandwidth loss at 4 KiB)\n%!"

(* ================= Figure 8 ================= *)

let fig8 () =
  header
    "Figure 8: OLTP web stack throughput [ops/min], 4 CPUs,\n\
     4..512 threads per component";
  let concurrencies = [ 4; 16; 64; 256; 512 ] in
  List.iter
    (fun db_mode ->
      Printf.printf "\n  --- %s DB ---\n"
        (match db_mode with O.On_disk -> "on-disk" | O.In_memory -> "in-memory");
      Printf.printf "  %-8s %12s %12s %8s %12s %8s %8s\n" "threads" "Linux" "dIPC"
        "(x)" "Ideal" "(x)" "dIPC/Ideal";
      List.iter
        (fun threads ->
          let r config = O.run ~config ~db_mode ~threads () in
          let lx = r O.Linux and dp = r O.Dipc and id = r O.Ideal in
          Printf.printf "  %-8d %12.0f %12.0f %7.2fx %12.0f %7.2fx %9.1f%%\n%!"
            threads lx.O.r_throughput_opm dp.O.r_throughput_opm
            (dp.O.r_throughput_opm /. lx.O.r_throughput_opm)
            id.O.r_throughput_opm
            (id.O.r_throughput_opm /. lx.O.r_throughput_opm)
            (100. *. dp.O.r_throughput_opm /. id.O.r_throughput_opm))
        concurrencies)
    [ O.On_disk; O.In_memory ];
  Printf.printf
    "\n  (paper speedups, on-disk: 2.23/3.18/1.80/1.39/1.11; in-memory:\n\
    \   2.42/5.12/2.62/1.81/1.17; dIPC always above 94%% of Ideal)\n%!"

(* ================= Sec. 7.5 sensitivity ================= *)

let sens_calls () =
  header
    "Sec. 7.5(a): how much slower could hardware domain crossings get\n\
     before dIPC loses its benefit?";
  let threads = 256 in
  let dp = O.run ~config:O.Dipc ~db_mode:O.In_memory ~threads () in
  let lx = O.run ~config:O.Linux ~db_mode:O.In_memory ~threads () in
  let p = O.default_params ~db_mode:O.In_memory ~threads in
  (* At saturation, throughput is CPU-bound: machine-seconds per op is the
     relevant cost of each configuration (the paper's accounting). *)
  let cpu_per_op (r : O.result) = 4. *. 60e9 /. r.O.r_throughput_opm in
  let a =
    S.crossing
      ~calls_per_op:(O.crossings_per_op p)
      ~call_ns:Costs.oltp_dipc_call_pressure
      ~linux_op_ns:(cpu_per_op lx) ~dipc_op_ns:(cpu_per_op dp)
  in
  Printf.printf "  calls per operation        : %d (paper: 211)\n" a.S.ca_calls_per_op;
  Printf.printf "  average call cost          : %.0f ns (paper: 252 ns)\n" a.S.ca_call_ns;
  Printf.printf "  break-even call cost       : %.0f ns\n" a.S.ca_max_call_ns;
  Printf.printf "  tolerable slowdown margin  : %.1fx (paper: 14x)\n%!"
    a.S.ca_slowdown_margin

let sens_caps () =
  header
    "Sec. 7.5(b): worst-case capability-load overhead (every cross-domain\n\
     access pays an extra capability load)";
  let threads = 256 in
  let dp = O.run ~config:O.Dipc ~db_mode:O.In_memory ~threads () in
  let lx = O.run ~config:O.Linux ~db_mode:O.In_memory ~threads () in
  let speedup = dp.O.r_throughput_opm /. lx.O.r_throughput_opm in
  (* ~2% of accesses cross domains (paper); accesses/op scaled from the
     op's CPU time at ~1 access/2ns. *)
  let a =
    S.capability_loads ~cross_access_frac:0.02
      ~accesses_per_op:(dp.O.r_latency_ns.Stats.s_mean /. 2.)
      ~dipc_op_ns:dp.O.r_latency_ns.Stats.s_mean ~speedup
  in
  Printf.printf "  cross-domain access fraction : %.1f%% (paper: ~2%%)\n"
    (100. *. a.S.cl_cross_access_frac);
  Printf.printf "  modelled capability load     : %.1f ns\n" a.S.cl_cap_load_ns;
  Printf.printf "  throughput overhead          : %.1f%% (paper: 12%%)\n"
    (100. *. a.S.cl_overhead_frac);
  Printf.printf "  residual speedup over Linux  : %.2fx (paper: 1.59x)\n%!"
    a.S.cl_residual_speedup

let stub_coopt () =
  header "Sec. 5.3.1: exception recovery, setjmp vs compiler-co-optimised try";
  let setjmp, try_ = Isolation.exception_recovery_costs () in
  Printf.printf "  setjmp-based recovery : %.1f ns/call site\n" setjmp;
  Printf.printf "  try-based recovery    : %.1f ns/call site\n" try_;
  Printf.printf "  ratio                 : %.2fx (paper: ~2.5x)\n%!" (setjmp /. try_)

let templates () =
  header "Sec. 6.1.1: proxy template statistics";
  (* One cache shared by every scenario below (the paper's build-time
     template sharing); the per-system default exists for domain safety
     and would count each system separately. *)
  let cache = Dipc_core.Proxy_cache.create () in
  (* Instantiate a representative spread of specialisations. *)
  let combos =
    [
      (false, Types.props_low, Types.props_low);
      (false, Types.props_high, Types.props_high);
      (true, Types.props_low, Types.props_low);
      (true, Types.props_high, Types.props_high);
      (true, Types.props_high, Types.props_low);
      (true, Types.props_low, Types.props_high);
    ]
  in
  List.iter
    (fun (same, cp, kp) ->
      List.iter
        (fun sig_ ->
          ignore
            (Scenario.make ~same_process:same ~caller_props:cp ~callee_props:kp
               ~sig_ ~proxy_cache:cache ()))
        [
          Types.signature ~args:1 ~rets:1 ();
          Types.signature ~args:4 ~rets:1 ~stack_bytes:32 ();
          Types.signature ~args:2 ~rets:1 ~cap_args:2 ~cap_rets:1 ();
        ])
    combos;
  let count, bytes = Proxy.stats cache in
  Printf.printf "  distinct templates instantiated : %d\n"
    (Proxy.template_count cache);
  Printf.printf "  proxies generated               : %d\n" count;
  Printf.printf "  average proxy size              : %d B (paper: ~600 B)\n%!"
    (if count = 0 then 0 else bytes / count)

(* ================= ablation ================= *)

(* The design-choice ablation DESIGN.md calls out: each isolation property
   has its own price, and dIPC only pays for what the two sides request
   (Sec. 5.2.3).  The rows isolate one property at a time; the deltas are
   the marginal cost of that property's stub/proxy code. *)
let ablate () =
  header
    "Ablation: marginal cost of each isolation property\n\
     (caller and callee both request only the listed property)";
  let rows =
    [
      ("none (Low)", Types.props_none);
      ("register integrity", { Types.props_none with Types.reg_integrity = true });
      ( "register confidentiality",
        { Types.props_none with Types.reg_confidentiality = true } );
      ("stack integrity", { Types.props_none with Types.stack_integrity = true });
      ( "stack confidentiality",
        { Types.props_none with Types.stack_confidentiality = true } );
      ("DCS integrity", { Types.props_none with Types.dcs_integrity = true });
      ( "DCS confidentiality",
        { Types.props_none with Types.dcs_confidentiality = true } );
      ("all (High)", Types.props_high);
    ]
  in
  let measure ~same props =
    (Scenario.measure
       (Scenario.make ~same_process:same ~caller_props:props ~callee_props:props ()))
      .Stats.s_mean
  in
  let base_same = measure ~same:true Types.props_none in
  let base_cross = measure ~same:false Types.props_none in
  Printf.printf "  %-26s %14s %10s %14s %10s\n" "property" "same-proc[ns]" "delta"
    "cross-proc[ns]" "delta";
  List.iter
    (fun (name, props) ->
      let s = measure ~same:true props and c = measure ~same:false props in
      Printf.printf "  %-26s %14.1f %+10.1f %14.1f %+10.1f\n" name s
        (s -. base_same) c (c -. base_cross))
    rows;
  Printf.printf
    "\n  (the jump from 'none' to any single property on the same-process\n\
    \   side also shows the lean->full template transition, Sec. 6.1.1)\n%!"

(* GVAS allocation contention (Sec. 7.4 notes global block allocation
   contends and suggests per-CPU pools). *)
let ablate_gvas () =
  header
    "Ablation: global vs per-CPU GVAS block allocation (the Sec. 7.4\n\
     scalability fix)";
  let block_alloc_cost = 1200. (* global lock + tree insert, ns *) in
  List.iter
    (fun cpus ->
      let contended = block_alloc_cost *. float_of_int cpus in
      Printf.printf
        "  %2d CPUs: global pool %7.1f ns/alloc under full contention; per-CPU pools %7.1f ns (%.1fx)\n"
        cpus contended block_alloc_cost (contended /. block_alloc_cost))
    [ 1; 2; 4; 8; 16 ];
  flush stdout

(* ================= bechamel ================= *)

let bechamel () =
  header
    "Bechamel: real OCaml-level cost of the hot simulator operations\n\
     (ns per operation on this host)";
  let open Bechamel in
  let scenario = Scenario.make () in
  let cache = Dipc_hw.Apl_cache.create () in
  for tag = 1 to 16 do
    ignore (Dipc_hw.Apl_cache.install cache tag)
  done;
  let tests =
    [
      Test.make ~name:"dipc_warm_call(sim)"
        (Staged.stage (fun () -> ignore (Scenario.call scenario ~args:[ 1; 2 ])));
      Test.make ~name:"apl_cache_lookup"
        (Staged.stage (fun () -> ignore (Dipc_hw.Apl_cache.lookup cache 7)));
      Test.make ~name:"proxy_generation"
        (Staged.stage (fun () ->
             let m = Dipc_hw.Memory.create () in
             let cache = Proxy.cache_create () in
             ignore
               (Proxy.generate cache ~mem:m ~base:0x1000 ~target_addr:0x8000
                  ~target_tag:3
                  {
                    Proxy.sig_ = Types.signature ~args:2 ~rets:1 ();
                    eff = Types.props_high;
                    cross_process = true;
                    tls_switch = true;
                  })));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "  %-24s %12.1f ns/op\n" name ns
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
        results)
    tests;
  flush stdout

(* ================= the cell registry ================= *)

(* Every run the fixed-seed suite, the sweeps and the CLI grids make is
   a cell: a name and a [run] that returns one row.  [run_cells] runs
   any list of cells over the runner's domains and prints their
   pre-rendered lines in list order, and [report] runs a family's cells
   ([cells_of]) between its header and summary.  Every cell builds its
   own Engine/Trace/Rng/Checker universe, so its row is the same at any
   [jobs] and in any list order (test_parallel.ml).  Adding a suite cell
   is one entry in its family's list; dipc_cli builds its grid cells
   from its command line and runs them through [run_cells] too. *)

module Trace = Dipc_sim.Trace
module Engine = Dipc_sim.Engine
module Inject = Dipc_sim.Inject
module Checker = Dipc_sim.Checker
module Histogram = Dipc_sim.Histogram
module Machine = Dipc_hw.Machine
module Page_table = Dipc_hw.Page_table
module Apl = Dipc_hw.Apl
module Isa = Dipc_hw.Isa
module Layout = Dipc_hw.Layout
module HwFault = Dipc_hw.Fault
module A = Dipc_workloads.Adversary
module OL = Dipc_workloads.Openload

(* The cross-cutting options, parsed once per front end. *)
type opts = {
  check : bool;  (* attach the online invariant checker to traced runs *)
  inject_seed : int option;  (* install a seeded fault injector *)
  jobs : int;  (* runner domains the cells are spread over *)
}

let default_opts = { check = false; inject_seed = None; jobs = 1 }

type row = {
  b_name : string;
  b_wall_s : float;  (* host seconds for the experiment *)
  b_sim_ns : float;  (* simulated nanoseconds covered *)
  b_events : int;  (* trace events (traced runs) or raw steps *)
  b_instret : int;
      (* machine instructions retired; 0 for kernel-model experiments,
         which execute no CODOMs instructions *)
  b_digest : string;  (* replay digest / deterministic state summary *)
  b_metric_name : string;
  b_metric : float;
  b_counters : (string * int) list;
      (* deterministic perf counters (retired instructions, translated-
         body entries, superblock hits/translations, side exits) for the
         machine-interpreter experiments; [] for kernel-model cells.
         Pure functions of the simulated execution — identical at any
         --jobs — but *dispatch-path-dependent* by design
         (--reference reports zeros), so they are emitted as their own
         JSON column and never enter a digest: the reference-path
         byte-diff job compares digests only, while the counter-equality
         gate runs on the default path alone.  The report families keep
         their per-cell tallies here too (runs and faults of a matrix
         cell, sessions and requests of an open-arrival cell). *)
  line : string;  (* pre-rendered report line; "" when silent *)
}

type family =
  | Pinned  (* `--json`: the cells of bench/BENCH_baseline.json, in order *)
  | Matrix  (* `--matrix`: the fault-injection matrix *)
  | Security  (* `--security`: the cost-of-isolation posture matrix *)
  | Open of OL.arrival  (* `--open ARRIVAL`: the open-arrival load sweep *)

type cell = { name : string; run : opts -> row }

(* A [Pinned] row; its line is the suite's per-cell report line. *)
let bench_row ?(instret = 0) ?(counters = []) name ~wall ~sim_ns ~events
    ~digest ~metric_name metric =
  {
    b_name = name;
    b_wall_s = wall;
    b_sim_ns = sim_ns;
    b_events = events;
    b_instret = instret;
    b_digest = digest;
    b_metric_name = metric_name;
    b_metric = metric;
    b_counters = counters;
    line =
      Printf.sprintf "  %-20s %8.3f s  %9d events  %12.0f ev/s  %s=%.1f\n" name
        wall events
        (float_of_int events /. wall)
        metric_name metric;
  }

(* A row of a report family: its line plus what tests and summaries
   read back. *)
let line_row ?(digest = "") ?(metric = 0.) ?(counters = []) name line =
  {
    b_name = name;
    b_wall_s = 0.;
    b_sim_ns = 0.;
    b_events = 0;
    b_instret = 0;
    b_digest = digest;
    b_metric_name = "";
    b_metric = metric;
    b_counters = counters;
    line;
  }

(* Each experiment is timed from a clean heap: collecting the previous
   experiment's garbage (its parked continuations) outside the measured
   window keeps per-experiment walls independent of suite order.
   Simulation results and digests never depend on the GC. *)
let timed f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Ring capacity for the suite's tracers: none.  The replay digest and
   event count fold over every emitted event, and nothing reads a suite
   tracer's ring (an invariant violation reports the checker's own
   16-event window), so the suite's tracers are digest-only and make
   none of the eight per-event ring stores: ~0.04 s off the traced
   Linux cell against a one-event ring (EXPERIMENTS.md "Digest-only
   tracers"). *)
let bench_trace_capacity = 0

let mk_tracer () = Trace.create ~capacity:bench_trace_capacity ()

(* What [observe] attached to one run. *)
type obs = { tr : Trace.t option; inj : Inject.t option; seen : int option }

(* Run [f trace inject] under a tracer (always when [traced], else only
   under [check]), with the invariant checker attached when [check] and
   a fresh injector when [inject_seed] is given: each run's fault
   schedule depends only on its seed, never on cell order.  The checker
   is then finished: [quiescent] asserts that no thread is left parked,
   [expect] gives the run's lifetime charges to conserve. *)
let observe ?(traced = true) ?config ~check ?inject_seed ~quiescent ?expect f =
  let tr = if traced || check then Some (mk_tracer ()) else None in
  let chk =
    match tr with
    | Some tr when check ->
        let c = Checker.create () in
        Checker.attach c tr;
        Some (c, tr)
    | _ -> None
  in
  let inj = Option.map (fun seed -> Inject.create ?config ~seed ()) inject_seed in
  let r = f tr inj in
  let seen =
    Option.map
      (fun (c, tr) ->
        Checker.finish ~quiescent ?expect:(Option.map (fun e -> e r) expect) c;
        Checker.detach tr;
        Checker.events_seen c)
      chk
  in
  (r, { tr; inj; seen })

let digest o = Option.fold ~none:"" ~some:Trace.digest_hex o.tr

let events o = Option.fold ~none:0 ~some:Trace.total o.tr

let faults o = Option.fold ~none:0 ~some:Inject.total_faults o.inj

(* The L4 server's final [reply_and_wait] parks it forever (that wait is
   part of the reply primitive): the run ends non-quiescent by design,
   so only skip the lost-wakeup assertion there. *)
let prim_quiescent prim = prim <> M.L4

let observe_micro ?traced ?config ?warmup ?iters ?bytes ~check ?inject_seed
    prim ~same_cpu =
  observe ?traced ?config ~check ?inject_seed ~quiescent:(prim_quiescent prim)
    ~expect:(fun r -> r.M.lifetime)
    (fun trace inject -> M.run ?warmup ?iters ?bytes ?trace ?inject ~same_cpu prim)

(* OLTP runs stop at a deadline with threads still parked: no
   quiescence, and the kernel is torn down inside O.run, so only the
   structural invariants apply. *)
let observe_oltp ?traced ?params ~check ?inject_seed ~config ~db_mode ~threads
    () =
  observe ?traced ~check ?inject_seed ~quiescent:false (fun trace inject ->
      O.run ?params_override:params ?trace ?inject ~config ~db_mode ~threads ())

let placement same_cpu = if same_cpu then "=CPU" else "!=CPU"

(* ================= the fixed-seed suite (--json) ================= *)

(* `--json FILE` runs a fixed-seed suite spanning every hot layer of the
   substrate (raw machine interpreter, event engine, kernel microbenches,
   end-to-end OLTP, the posture matrix, open arrivals) and writes a
   machine-readable BENCH_*.json (schema dipc-bench/v1, documented in
   EXPERIMENTS.md).  The suite is the regression anchor for wall-clock
   performance: CI compares its golden replay digest against the
   committed baseline and enforces a generous wall-clock budget, so the
   substrate can be optimized aggressively as long as the simulated
   timeline stays bit-identical. *)

let pinned name run = { name; run }

(* One microbenchmark cell.  [golden_sem_same] runs it in the exact
   configuration of test_trace's golden digest (Sem, same CPU, warmup
   5, 20 measured iterations); that digest is the suite's acceptance
   gate.  The others warm up 20 round trips and measure 200. *)
let micro_cell ~warmup ~iters name prim ~same_cpu =
  pinned name (fun o ->
      let (r, obs), wall =
        timed (fun () ->
            observe_micro ~warmup ~iters ~check:o.check
              ?inject_seed:o.inject_seed prim ~same_cpu)
      in
      bench_row name ~wall ~sim_ns:(r.M.mean_ns *. float iters)
        ~events:(events obs) ~digest:(digest obs) ~metric_name:"mean_ns"
        r.M.mean_ns)

(* The closed OLTP model: one engine, driven by [Oltp.run]'s default
   [Engine.run_until]. *)
let oltp_cell name config =
  pinned name (fun o ->
      let (r, obs), wall =
        timed (fun () ->
            observe_oltp ~check:o.check ?inject_seed:o.inject_seed ~config
              ~db_mode:O.In_memory ~threads:96 ())
      in
      let p = O.default_params ~db_mode:O.In_memory ~threads:96 in
      bench_row name ~wall ~sim_ns:(p.O.warmup +. p.O.duration)
        ~events:(events obs) ~digest:(digest obs) ~metric_name:"throughput_opm"
        r.O.r_throughput_opm)

(* The fixed counter schema shared by the machine-interpreter
   experiments: retired instructions plus the dispatch counters.  Key
   order is part of the JSON contract (the comparator is
   order-sensitive, like the digest corpus). *)
let machine_counters (m : Machine.t) ~instret =
  [
    ("instret", instret);
    ("blocks", m.Machine.ctr_block_entries);
    ("sb_hits", m.Machine.ctr_sb_hits);
    ("sb_xlate", m.Machine.ctr_sb_translations);
    ("side_exits", m.Machine.ctr_side_exits);
    ("ras_hits", m.Machine.ctr_ras_hits);
    ("ras_misses", m.Machine.ctr_ras_misses);
    ("ic_hits", m.Machine.ctr_ic_hits);
    ("ic_misses", m.Machine.ctr_ic_misses);
  ]

(* A machine-interpreter cell: [program] builds a machine, runs it and
   returns it with the final context and one data word.  The digest
   (the retired count, the cost, that word and register [reg]) is
   dispatch-path-independent, identical under --reference; the counters
   column pins the dispatch machinery itself. *)
let machine_cell ?reg name program =
  pinned name (fun _ ->
      let (m, ctx, word), wall = timed program in
      let instret = ctx.Machine.instret and cost = ctx.Machine.cost in
      bench_row name ~wall ~sim_ns:cost ~events:instret ~instret
        ~counters:(machine_counters m ~instret)
        ~digest:
          (Printf.sprintf "instret=%d cost=%.0f mem=%d%s" instret cost word
             (match reg with
             | Some r -> Printf.sprintf " r%d=%d" r ctx.Machine.regs.(r)
             | None -> ""))
        ~metric_name:"minstr_per_s"
        (float_of_int instret /. wall /. 1e6))

(* Raw interpreter hot loop: straight-line fetch/load/store on one domain,
   no tracing — measures the machine/memory substrate alone. *)
let hotloop_iters = 400_000

let hotloop_program () =
  let m = Machine.create () in
  let tag = Apl.fresh_tag m.Machine.apl in
  let code = 0x100000 and data = 0x200000 in
  Page_table.map m.Machine.page_table ~addr:code ~count:1 ~tag ~writable:false
    ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:data ~count:4 ~tag ();
  let loop = code + (3 * Isa.instr_bytes) in
  ignore
    (Dipc_hw.Memory.place_code m.Machine.mem ~addr:code
       [
         Isa.Const (1, data);
         Isa.Const (2, 0);
         Isa.Const (3, hotloop_iters);
         (* loop: *)
         Isa.Load (4, 1, 0);
         Isa.Addi (4, 4, 1);
         Isa.Store (1, 8, 4);
         Isa.Load (5, 1, 8);
         Isa.Store (1, 0, 5);
         Isa.Addi (2, 2, 1);
         Isa.Blt (2, 3, loop);
         Isa.Halt;
       ]);
  let ctx = Machine.new_ctx m ~pc:code ~sp_value:(data + (4 * 4096)) in
  Machine.run ~fuel:((hotloop_iters * 8) + 100) m ctx;
  (m, ctx, Machine.peek_word m ~addr:data)

(* Superblock torture cell: a cross-domain call in a loop (the dIPC
   crossing shape), a parity-dependent forward branch (its speculated
   fall-through misses every other iteration — side exits by design), a
   per-iteration syscall (never chained: the dispatcher reference-steps
   it), and a handler that re-grants an APL edge every 64 calls (the
   generation bump flushes every warm superblock mid-run, forcing
   retranslation).  The counters pin chains formed, warm hits,
   speculation misses and invalidation-forced retranslations. *)
let superblock_iters = 20_000

let superblock_program () =
  let m = Machine.create () in
  let tag_a = Apl.fresh_tag m.Machine.apl in
  let tag_b = Apl.fresh_tag m.Machine.apl in
  let code = 0x100000 and callee = 0x110000 and data = 0x200000 in
  let stack = 0x300000 in
  Page_table.map m.Machine.page_table ~addr:code ~count:1 ~tag:tag_a
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:callee ~count:1 ~tag:tag_b
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:data ~count:1 ~tag:tag_a ();
  Page_table.map m.Machine.page_table ~addr:stack ~count:1 ~tag:tag_a ();
  Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Dipc_hw.Perm.Call;
  Apl.grant m.Machine.apl ~src:tag_b ~dst:tag_a Dipc_hw.Perm.Read;
  let calls = ref 0 in
  Machine.set_syscall_handler m (fun _ctx _n ->
      incr calls;
      if !calls mod 64 = 0 then
        (* an idempotent re-grant still bumps the APL generation:
           every warm superblock is invalidated mid-run *)
        Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Dipc_hw.Perm.Call);
  let ib = Isa.instr_bytes in
  let loop = code + (5 * ib) in
  let skip = loop + (3 * ib) in
  ignore
    (Dipc_hw.Memory.place_code m.Machine.mem ~addr:code
       [
         Isa.Const (1, data);
         Isa.Const (2, 0);
         Isa.Const (3, superblock_iters);
         Isa.Const (5, 0);
         Isa.Const (6, 1);
         (* loop: *)
         Isa.Sub (5, 6, 5) (* r5 toggles 1,0,1,0... *);
         Isa.Bnez (5, skip) (* forward: speculated not-taken *);
         Isa.Addi (7, 7, 3);
         (* skip: *)
         Isa.Call callee (* cross-domain, chained *);
         Isa.Store (1, 0, 7);
         Isa.Syscall 0 (* never chained; APL churn every 64 *);
         Isa.Addi (2, 2, 1);
         Isa.Blt (2, 3, loop) (* backward: speculated taken *);
         Isa.Halt;
       ]);
  ignore
    (Dipc_hw.Memory.place_code m.Machine.mem ~addr:callee
       [ Isa.Addi (7, 7, 1); Isa.Ret ]);
  let ctx = Machine.new_ctx m ~pc:code ~sp_value:(stack + Layout.page_size) in
  Machine.run ~fuel:(superblock_iters * 40) m ctx;
  (m, ctx, Machine.peek_word m ~addr:data)

(* Call-return torture cell: the dispatch shape the dIPC claim lives on.
   An unrolled train of eight calls to a bare-[Ret] leaf per iteration,
   plus one monomorphic indirect call ([Callr]) and one monomorphic
   indirect jump ([Jmpr]) — nine returns predicted by the RAS, both
   indirect sites by their inline caches, the backward loop branch
   speculated taken, so the steady state runs entirely inside one
   superblock.  Without the predictors every Ret/Callr/Jmpr would be a
   dispatcher round-trip — eleven per ~21 retired instructions — and
   that is exactly the fine-grained cross-domain call shape the paper's
   IPC claim rests on.  The counters pin the predictor machinery. *)
let callret_iters = 100_000

let callret_program () =
  let m = Machine.create () in
  let tag = Apl.fresh_tag m.Machine.apl in
  let code = 0x100000 and data = 0x200000 and stack = 0x300000 in
  Page_table.map m.Machine.page_table ~addr:code ~count:1 ~tag ~writable:false
    ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:data ~count:1 ~tag ();
  Page_table.map m.Machine.page_table ~addr:stack ~count:1 ~tag ();
  let ib = Isa.instr_bytes in
  let loop = code + (5 * ib) in
  let cont = code + (15 * ib) in
  let leaf = code + (19 * ib) in
  ignore
    (Dipc_hw.Memory.place_code m.Machine.mem ~addr:code
       [
         Isa.Const (1, data);
         Isa.Const (2, 0);
         Isa.Const (3, callret_iters);
         Isa.Const (10, leaf);
         Isa.Const (6, cont);
         (* loop: eight direct leaf calls, return-predicted *)
         Isa.Call leaf;
         Isa.Call leaf;
         Isa.Call leaf;
         Isa.Call leaf;
         Isa.Call leaf;
         Isa.Call leaf;
         Isa.Call leaf;
         Isa.Call leaf;
         Isa.Callr 10 (* monomorphic indirect call *);
         Isa.Jmpr 6 (* monomorphic indirect jump *);
         (* cont: *)
         Isa.Store (1, 0, 2);
         Isa.Addi (2, 2, 1);
         Isa.Blt (2, 3, loop);
         Isa.Halt;
         (* leaf: *)
         Isa.Ret;
       ]);
  let ctx = Machine.new_ctx m ~pc:code ~sp_value:(stack + Layout.page_size) in
  Machine.run ~fuel:((callret_iters * 30) + 100) m ctx;
  (m, ctx, Machine.peek_word m ~addr:data)

(* Event-engine churn: many threads hammering the timer heap, no tracing —
   measures the engine/heap substrate alone. *)
let engine_timerstorm =
  pinned "engine_timerstorm" (fun _ ->
      let (now, steps, acc), wall =
        timed (fun () ->
            let e = Engine.create () in
            let acc = ref 0 in
            for i = 0 to 49 do
              Engine.spawn e (fun () ->
                  for _ = 1 to 10_000 do
                    Engine.delay e (float_of_int (1 + (i mod 7)));
                    incr acc
                  done)
            done;
            Engine.run e;
            (Engine.now e, Engine.steps e, !acc))
      in
      bench_row "engine_timerstorm" ~wall ~sim_ns:now ~events:steps
        ~digest:(Printf.sprintf "now=%.0f steps=%d acc=%d" now steps acc)
        ~metric_name:"events_per_s"
        (float_of_int steps /. wall))

(* ================= cost-of-isolation posture matrix ================= *)

(* {3 postures} x {3 backends} x {clean, under-attack}: what enforcement
   costs on each architecture, and what each posture does with a hostile
   load.  Every cell runs its sweep on BOTH interpreter paths (the
   compiled superblock path and the reference stepper) and fails if the
   outcome digests or simulated costs diverge — the adversarial
   counterpart of the test_blocks equivalence property.  Cells carry
   their posture on the machine/cpu they build (never the global
   default), so they shard safely across runner domains.  The same 18
   cells are pinned in the --json suite ([sec_*] rows) and printed by
   --security. *)

let sec_load_attacks backend = function
  | `Clean -> List.init 8 (fun _ -> A.Benign)
  | `Attack -> (
      match backend with
      | A.Codoms -> A.cross_attacks @ A.machine_attacks
      | A.Minicheri_b | A.Minimmp_b -> A.cross_attacks)

let sec_name backend posture load =
  Printf.sprintf "sec_%s_%s_%s" (A.backend_name backend)
    (HwFault.posture_to_string posture)
    (match load with `Clean -> "clean" | `Attack -> "attack")

(* Run one cell: both interpreter paths, digest/cost equality enforced. *)
let sec_run backend posture load =
  let attacks = sec_load_attacks backend load in
  let outs_c, cost_c = A.sweep ~posture backend attacks in
  let outs_r, cost_r = A.sweep ~reference:true ~posture backend attacks in
  let d_c = A.digest_outcomes outs_c and d_r = A.digest_outcomes outs_r in
  if d_c <> d_r || cost_c <> cost_r then
    failwith
      (Printf.sprintf
         "security matrix: %s diverges across interpreter paths: %s/%.1f vs %s/%.1f"
         (sec_name backend posture load)
         d_c cost_c d_r cost_r);
  (outs_c, cost_c, d_c)

let sec_count f outs = List.fold_left (fun n o -> n + f o) 0 outs

let sec_backends = [ A.Codoms; A.Minicheri_b; A.Minimmp_b ]

(* The [Security] cell of ([backend], [posture], [load]) is named
   security/sec_...; the [Pinned] one, sec_... *)
let sec_cell family backend posture load =
  let sec = sec_name backend posture load in
  let name = if family = Pinned then sec else "security/" ^ sec in
  let run _ =
    let (outs, cost, digest), wall =
      timed (fun () -> sec_run backend posture load)
    in
    if family = Pinned then
      bench_row name ~wall ~sim_ns:cost ~events:(List.length outs) ~digest
        ~metric_name:"enforcement_ns" cost
    else
      line_row name ~digest ~metric:cost
        (Printf.sprintf
           "  %-28s cost=%9.1f ns  faults=%2d  audited=%2d  digest=%s\n" sec
           cost
           (sec_count (function A.Faulted _ -> 1 | _ -> 0) outs)
           (sec_count (function A.Ran a -> a | _ -> 0) outs)
           digest)
  in
  { name; run }

let sec_cells family =
  List.concat_map
    (fun posture ->
      List.concat_map
        (fun b -> [ sec_cell family b posture `Clean; sec_cell family b posture `Attack ])
        sec_backends)
    HwFault.all_postures

(* ================= open-arrival load sweeps ================= *)

(* Mean service demand per request, measured once per process and shared
   via a mutex-protected memo (same discipline as [dipc_costs]: the
   measurement is deterministic, so any domain computes the same
   values).  The kernel primitives use the cross-CPU microbench round
   trip — the open-arrival station spreads requests over all CPUs — and
   dIPC uses the cross-process High call (the isolation-equivalent
   configuration).  [open_prims] lists the names in the same order. *)

let open_costs_mutex = Mutex.create ()

let open_costs_memo = ref None

let open_costs () =
  Mutex.protect open_costs_mutex (fun () ->
      match !open_costs_memo with
      | Some c -> c
      | None ->
          let cross prim = (M.run ~same_cpu:false prim).M.mean_ns in
          let { high_proc; _ } = dipc_costs () in
          let c =
            [
              ("sem", cross M.Sem);
              ("pipe", cross M.Pipe);
              ("l4", cross M.L4);
              ("rpc", cross M.Local_rpc);
              ("dipc", high_proc);
            ]
          in
          open_costs_memo := Some c;
          c)

let open_prims = [ "sem"; "pipe"; "l4"; "rpc"; "dipc" ]

(* Offered loads swept per primitive: from a comfortable 0.3 up through
   the knee region and into overload (rho > 1 demonstrates the
   open-arrival failure mode a closed network can never exhibit). *)
let open_loads = [ 0.30; 0.50; 0.70; 0.85; 0.95; 1.05; 1.20 ]

(* 5 primitives x 7 loads x 30k sessions/cell > 1M simulated client
   sessions per sweep invocation. *)
let open_sweep_sessions = 30_000

(* One (primitive, load) cell of the `--open` sweep.  Its seed is a
   fixed function of the cell's coordinates, never a shared stream, so
   cells are independent of execution order, and rows are byte-identical
   at any [jobs]. *)
let open_sweep_cell arrival prim_idx prim load_idx load =
  let name = Printf.sprintf "open/%s/%s/rho=%.2f" (OL.arrival_name arrival) prim load in
  let run _ =
    let service_ns = List.assoc prim (open_costs ()) in
    let p =
      OL.default_params
        ~seed:(0xD1BC + (97 * prim_idx) + load_idx)
        ~sessions:open_sweep_sessions ~offered_load:load ~arrival ~service_ns ()
    in
    let r = OL.run p in
    let pc q = Histogram.percentile r.OL.r_latency q in
    let p50 = pc 50. and p99 = pc 99. and p999 = pc 99.9 in
    line_row name ~digest:r.OL.r_digest ~metric:p99
      ~counters:[ ("sessions", r.OL.r_sessions); ("requests", r.OL.r_requests) ]
      (Printf.sprintf
         "  %-5s rho=%.2f  p50=%11.1f  p99=%11.1f  p999=%11.1f  util=%.3f  \
          tput=%12.0f rps  digest=%s\n"
         prim load p50 p99 p999
         (OL.utilization r ~servers:p.OL.servers)
         (OL.throughput_rps r) r.OL.r_digest)
  in
  { name; run }

let open_sweep_cells arrival =
  List.concat
    (List.mapi
       (fun prim_idx prim ->
         List.mapi (open_sweep_cell arrival prim_idx prim) open_loads)
       open_prims)

(* Four fixed open-arrival cells ride in the --json digest suite, one
   per arrival process family plus an overload point: their digests pin
   the generator, the HDR histogram layout and the unbiased sampler
   against unintended drift. *)
let open_bench_sessions = 20_000

let open_pinned name prim arrival load =
  pinned name (fun _ ->
      let service_ns = List.assoc prim (open_costs ()) in
      let r, wall =
        timed (fun () ->
            OL.run
              (OL.default_params ~seed:42 ~sessions:open_bench_sessions
                 ~offered_load:load ~arrival ~service_ns ()))
      in
      bench_row name ~wall ~sim_ns:r.OL.r_makespan_ns ~events:r.OL.r_requests
        ~digest:r.OL.r_digest ~metric_name:"p99_ns"
        (Histogram.percentile r.OL.r_latency 99.))

(* ================= fault-injection matrix ================= *)

(* Every IPC primitive and the OLTP/netpipe workloads under a matrix of
   injection schedules (mild and hostile), with the invariant checker
   attached to each run whatever [opts.check] says.  Each micro cell
   runs twice with the same seed and must reproduce its digest exactly;
   charge conservation is checked against the kernel's lifetime totals.
   The seeds are [opts.inject_seed] (default 7) and the next one. *)

let matrix_seed o k = Option.value o.inject_seed ~default:7 + k

let matrix_schedules =
  [ ("default", Inject.default_config); ("aggressive", Inject.aggressive_config) ]

let matrix_prims =
  [ (M.Sem, "sem"); (M.Pipe, "pipe"); (M.L4, "l4"); (M.Local_rpc, "rpc"); (M.User_rpc_prim, "urpc") ]

let matrix_micro (sname, config) (prim, pname) same_cpu k =
  let name = Printf.sprintf "matrix/%s/%s/%s/seed+%d" pname sname (placement same_cpu) k in
  let run o =
    let seed = matrix_seed o k in
    let once () =
      observe_micro ~config ~warmup:5 ~iters:25 ~check:true ~inject_seed:seed
        prim ~same_cpu
    in
    let r, o1 = once () in
    let _, o2 = once () in
    let d1 = digest o1 in
    if d1 <> digest o2 then
      failwith
        (Printf.sprintf "fault matrix: %s/%s seed %d not reproducible: %s vs %s"
           pname sname seed d1 (digest o2));
    line_row name ~digest:d1
      ~counters:[ ("runs", 2); ("faults", faults o1 + faults o2) ]
      (Printf.sprintf "  %-5s %-10s %-6s seed=%-3d digest=%s mean=%8.1f ns\n"
         pname sname (placement same_cpu) seed d1 r.M.mean_ns)
  in
  { name; run }

(* Short OLTP cells under injection: deadline-stopped, so structural
   invariants only (no quiescence / conservation reference). *)
let matrix_oltp config =
  let name = "matrix/oltp/" ^ O.config_name config in
  let run o =
    let params =
      {
        (O.default_params ~db_mode:O.In_memory ~threads:8) with
        O.warmup = 1_000_000.;
        duration = 20_000_000.;
      }
    in
    let r, obs =
      observe_oltp ~params:(Some params) ~check:true
        ~inject_seed:(matrix_seed o 0) ~config ~db_mode:O.In_memory ~threads:8 ()
    in
    line_row name ~digest:(digest obs)
      ~counters:[ ("runs", 1); ("faults", faults obs) ]
      (Printf.sprintf "  oltp  %-10s thr=8  digest=%s tput=%8.0f opm\n"
         (O.config_name config) (digest obs) r.O.r_throughput_opm)
  in
  { name; run }

(* Netpipe overheads recomputed from injected microbench costs: the
   analytic model must stay finite on a faulty substrate. *)
let matrix_netpipe =
  let run o =
    let inj_cost prim =
      let inject = Inject.create ~seed:(matrix_seed o 0) () in
      (M.run ~warmup:5 ~iters:25 ~inject ~same_cpu:true prim).M.mean_ns
    in
    let { low_same; low_proc; _ } = dipc_costs () in
    let c =
      {
        N.sem_roundtrip = inj_cost M.Sem;
        pipe_roundtrip = inj_cost M.Pipe;
        dipc_proc_call = low_proc;
        dipc_same_call = low_same;
      }
    in
    List.iter
      (fun m ->
        List.iter
          (fun bytes ->
            let l = N.latency_overhead_pct c m ~bytes in
            let b = N.bandwidth_overhead_pct c m ~bytes in
            if not (Float.is_finite l && Float.is_finite b) then
              failwith "fault matrix: netpipe overhead not finite")
          [ 1; 256; 4096 ])
      [ N.Pipe_ipc; N.Sem_ipc; N.Dipc_proc; N.Dipc_same ];
    line_row "matrix/netpipe/finite" ~counters:[ ("runs", 2); ("faults", 0) ] ""
  in
  { name = "matrix/netpipe/finite"; run }

let matrix_cells =
  List.concat_map
    (fun sched ->
      List.concat_map
        (fun prim ->
          List.concat_map
            (fun same_cpu -> List.map (matrix_micro sched prim same_cpu) [ 0; 1 ])
            [ true; false ])
        matrix_prims)
    matrix_schedules
  @ [ matrix_oltp O.Linux; matrix_oltp O.Dipc; matrix_netpipe ]

(* ================= the registry ================= *)

(* The [Pinned] cells, in the order of bench/BENCH_baseline.json
   (test_golden checks it). *)
let pinned_cells =
  List.map
    (fun (name, prim, same_cpu, warmup, iters) ->
      micro_cell ~warmup ~iters name prim ~same_cpu)
    [
      ("golden_sem_same", M.Sem, true, 5, 20);
      ("sem_same", M.Sem, true, 20, 200);
      ("sem_diff", M.Sem, false, 20, 200);
      ("pipe_same", M.Pipe, true, 20, 200);
      ("pipe_diff", M.Pipe, false, 20, 200);
      ("l4_same", M.L4, true, 20, 200);
      ("rpc_same", M.Local_rpc, true, 20, 200);
      ("rpc_diff", M.Local_rpc, false, 20, 200);
    ]
  @ [
      oltp_cell "oltp_linux_mem96" O.Linux;
      oltp_cell "oltp_dipc_mem96" O.Dipc;
      oltp_cell "oltp_ideal_mem96" O.Ideal;
      machine_cell "machine_hotloop" hotloop_program;
      machine_cell ~reg:7 "machine_superblock" superblock_program;
      machine_cell ~reg:2 "machine_callret" callret_program;
      engine_timerstorm;
    ]
  @ sec_cells Pinned
  @ [
      open_pinned "open_sem_poisson70" "sem" OL.Poisson 0.70;
      open_pinned "open_rpc_bursty85" "rpc" OL.Bursty 0.85;
      open_pinned "open_dipc_diurnal90" "dipc" OL.Diurnal 0.90;
      open_pinned "open_pipe_poisson105" "pipe" OL.Poisson 1.05;
    ]

let cells_of = function
  | Pinned -> pinned_cells
  | Matrix -> matrix_cells
  | Security -> sec_cells Security
  | Open arrival -> open_sweep_cells arrival

(* Every suite cell, the [Pinned] ones first. *)
let cells =
  List.concat_map cells_of
    [ Pinned; Matrix; Security; Open OL.Poisson; Open OL.Bursty; Open OL.Diurnal ]

let find name = List.find_opt (fun c -> c.name = name) cells

let rows outcomes = Array.to_list (Array.map (fun o -> o.Parallel.o_value) outcomes)

(* The sum of one tally column over [rows]. *)
let tally k rows = List.fold_left (fun a r -> a + List.assoc k r.b_counters) 0 rows

(* Run [cells] over [o.jobs] domains and print each row's line in list
   order: stdout is byte-identical at any [jobs].  The outcomes carry
   each run's wall and allocation stats. *)
let run_cells o cells =
  let out =
    Parallel.run ~jobs:o.jobs
      (Array.of_list (List.map (fun c -> (c.name, fun () -> c.run o)) cells))
  in
  Array.iter (fun r -> print_string r.Parallel.o_value.line) out;
  flush stdout;
  out

(* ================= the --json report ================= *)

(* --- Timestamped benchmark history ------------------------------------

   Every clean [bench_json] run appends one compact JSON line to
   BENCH_latest.jsonl next to the report: commit, whether the working
   tree had uncommitted changes, UTC timestamp, and each experiment's
   sim-MIPS + deterministic counters.  `dipc_cli compare --trend`
   diffs the last two lines, turning the one-shot report into a trend
   line across commits.  Injected runs are skipped (their
   timelines aren't comparable) and any I/O failure only warns — the
   history is an observability aid, never a gate. *)

(* The commit the working tree is on, and whether it has uncommitted
   changes, from one `git status --porcelain=v2 --branch`: its
   "# branch.oid" header names the commit (in a worktree too, where
   .git is a file), and every line not starting with '#' is a change.
   The dirty flag is [None] outside a git checkout or when git cannot
   be run, so a row never claims a clean tree it did not see. *)
let git_state () =
  let unknown = ("unknown", None) in
  if not (Sys.file_exists ".git") then unknown
  else
    try
      let ic =
        Unix.open_process_args_in "git"
          [| "git"; "status"; "--porcelain=v2"; "--branch" |]
      in
      let lines = In_channel.input_lines ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 ->
          let prefix = "# branch.oid " in
          let n = String.length prefix in
          let oid l =
            if String.starts_with ~prefix l then Some (String.sub l n (String.length l - n))
            else None
          in
          ( Option.value (List.find_map oid lines) ~default:"unknown",
            Some (List.exists (fun l -> not (String.starts_with ~prefix:"#" l)) lines) )
      | _ -> unknown
    with Unix.Unix_error _ | Sys_error _ -> unknown

let git_commit () = fst (git_state ())

let utc_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* The counters object is emitted in list order: the key sequence is
   part of the dipc-bench/v1 contract and the counter-equality gate
   compares cells positionally after matching names. *)
let counters_json r =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) r.b_counters)

let sim_mips r = float_of_int r.b_instret /. r.b_wall_s /. 1e6

let append_history ~out results =
  let path = Filename.concat (Filename.dirname out) "BENCH_latest.jsonl" in
  try
    let cells =
      List.map
        (fun r ->
          Printf.sprintf "{\"name\": \"%s\", \"sim_mips\": %.3f, \"counters\": {%s}}"
            r.b_name (sim_mips r) (counters_json r))
        results
    in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    let commit, dirty = git_state () in
    Printf.fprintf oc
      "{\"schema\": \"dipc-bench-hist/v1\", \"commit\": \"%s\", \"dirty\": \
       %s, \"utc\": \"%s\", \"experiments\": [%s]}\n"
      commit
      (Option.fold ~none:"null" ~some:string_of_bool dirty)
      (utc_now ())
      (String.concat ", " cells);
    close_out oc;
    Printf.printf "  appended history row to %s\n%!" path
  with Sys_error msg -> Printf.printf "  (history append skipped: %s)\n%!" msg

(* Run the [Pinned] cells and write the report.  [total_wall_s] stays
   the *sum* of per-cell walls (the CI time budget compares CPU work,
   which sharding does not reduce); [elapsed_wall_s] is the elapsed time
   of the run and [jobs] records the domain count.  [minor_words] is the
   per-domain minor-allocation estimate of each cell (Gc.minor_words is
   domain-local in OCaml 5). *)
let bench_report o out =
  (* The measured suite runs with a large minor heap: the traced runs
     allocate continuations and trace plumbing at a rate that makes
     minor-collection cadence a visible fraction of wall time with the
     default 256k-word nursery.  Purely a host-side timing knob —
     simulation results and digests never depend on the GC. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  header "Fixed-seed benchmark suite (machine-readable)";
  Option.iter
    (Printf.printf
       "  fault injection ON (seed %d): digests are the injected timeline,\n\
       \  not comparable with BENCH_baseline.json\n")
    o.inject_seed;
  if o.check then Printf.printf "  invariant checker attached to every traced run\n";
  if o.jobs > 1 then Printf.printf "  sharded across %d domains\n" o.jobs;
  let t0 = Unix.gettimeofday () in
  let outcomes = run_cells o (cells_of Pinned) in
  let elapsed = Unix.gettimeofday () -. t0 in
  let results = rows outcomes in
  let total_wall = List.fold_left (fun a r -> a +. r.b_wall_s) 0. results in
  let total_events = List.fold_left (fun a r -> a + r.b_events) 0 results in
  Printf.printf "  total wall: %.3f s (elapsed %.3f s, %d job%s)\n" total_wall
    elapsed o.jobs
    (if o.jobs = 1 then "" else "s");
  let golden =
    match List.find_opt (fun r -> r.b_name = "golden_sem_same") results with
    | Some r ->
        Printf.printf "  golden digest: %s\n" r.b_digest;
        r.b_digest
    | None -> ""
  in
  let oc = open_out out in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"dipc-bench/v1\",\n";
  Printf.fprintf oc "  \"suite\": \"fixed-seed-v1\",\n";
  Printf.fprintf oc "  \"ocaml_version\": \"%s\",\n" Sys.ocaml_version;
  Printf.fprintf oc "  \"jobs\": %d,\n" o.jobs;
  Printf.fprintf oc "  \"golden_digest\": \"%s\",\n" golden;
  Printf.fprintf oc "  \"total_wall_s\": %.6f,\n" total_wall;
  Printf.fprintf oc "  \"elapsed_wall_s\": %.6f,\n" elapsed;
  Printf.fprintf oc "  \"total_events\": %d,\n" total_events;
  Printf.fprintf oc "  \"events_per_sec\": %.1f,\n"
    (float_of_int total_events /. total_wall);
  Printf.fprintf oc "  \"experiments\": [\n";
  let n = Array.length outcomes in
  Array.iteri
    (fun i o ->
      let r = o.Parallel.o_value in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"wall_s\": %.6f, \"sim_ns\": %.3f, \
         \"events\": %d, \"events_per_sec\": %.1f, \"instret\": %d, \
         \"sim_mips\": %.3f, \"minor_words\": %.0f, \
         \"counters\": {%s}, \
         \"digest\": \"%s\", \"metric_name\": \"%s\", \"metric\": %.6f}%s\n"
        r.b_name r.b_wall_s r.b_sim_ns r.b_events
        (float_of_int r.b_events /. r.b_wall_s)
        r.b_instret (sim_mips r) o.Parallel.o_minor_words (counters_json r)
        r.b_digest r.b_metric_name r.b_metric
        (if i = n - 1 then "" else ","))
    outcomes;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote %s\n%!" out;
  if o.inject_seed = None then append_history ~out results

let bench_json ?(check = false) ?inject_seed ?(jobs = 1) out =
  bench_report { check; inject_seed; jobs } out

(* ================= the report families ================= *)

(* The `--security` summary: the cost-of-isolation figure, enforcement
   cost per backend under each posture, clean vs under-attack. *)
let security_summary rows =
  let find b p l =
    match List.find_opt (fun r -> r.b_name = "security/" ^ sec_name b p l) rows with
    | Some r -> r.b_metric
    | None -> nan
  in
  let per_scenario b p l =
    find b p l /. float_of_int (List.length (sec_load_attacks b l))
  in
  Printf.printf "\n  cost of isolation per scenario [ns] (clean / under-attack):\n";
  List.iter
    (fun p ->
      Printf.printf "    %-10s" (HwFault.posture_to_string p);
      List.iter
        (fun b ->
          Printf.printf "  %s=%7.1f/%7.1f" (A.backend_name b)
            (per_scenario b p `Clean) (per_scenario b p `Attack))
        sec_backends;
      print_newline ())
    HwFault.all_postures;
  Printf.printf
    "\n  posture premium on a hostile load (total vs strict, ns --\n\
    \  continuing past downgraded denials costs extra work):\n";
  List.iter
    (fun p ->
      if p <> HwFault.Strict then begin
        Printf.printf "    %-10s" (HwFault.posture_to_string p);
        List.iter
          (fun b ->
            Printf.printf "  %s=%+9.1f" (A.backend_name b)
              (find b p `Attack -. find b HwFault.Strict `Attack))
          sec_backends;
        print_newline ()
      end)
    HwFault.all_postures;
  Printf.printf
    "  (CODOMs faults before paying crossing costs; CHERI pays an\n\
    \   exception per attempt; MMP pays table writes + flushes)\n%!";
  Printf.printf "security matrix: %d cells checked on both interpreter paths\n%!"
    (List.length rows)

(* The `--open` summary: session totals and the per-primitive saturation
   knee from the p99-vs-load curve. *)
let open_summary arrival rows =
  Printf.printf "\n  %d client sessions simulated (%d requests)\n"
    (tally "sessions" rows) (tally "requests" rows);
  Printf.printf "\n  saturation knee (first load with p99 >= 3x unloaded p99):\n";
  List.iter
    (fun (prim, service_ns) ->
      let prefix = Printf.sprintf "open/%s/%s/" (OL.arrival_name arrival) prim in
      let curve =
        List.combine open_loads
          (List.filter_map
             (fun r ->
               if String.starts_with ~prefix r.b_name then Some r.b_metric
               else None)
             rows)
      in
      match OL.saturation_knee curve with
      | Some load ->
          Printf.printf "    %-5s (service %7.1f ns): rho = %.2f\n" prim
            service_ns load
      | None ->
          Printf.printf "    %-5s (service %7.1f ns): none up to rho = %.2f\n"
            prim service_ns
            (List.fold_left (fun a (l, _) -> Float.max a l) 0. curve))
    (open_costs ());
  Printf.printf
    "  (the knee is a property of offered load, not service demand: at\n\
    \   its knee dIPC serves an order of magnitude more requests per\n\
    \   second than any kernel primitive at the same rho)\n%!";
  Printf.printf "open sweep: %d cells\n%!" (List.length rows)

(* Run a family's cells under [o] between its header and its summary;
   [out] is where [Pinned] writes its report. *)
let report ?(out = "BENCH_fixed_seed.json") o family =
  let run () = rows (run_cells o (cells_of family)) in
  match family with
  | Pinned -> bench_report o out
  | Matrix ->
      let rows = run () in
      Printf.printf "fault matrix: %d runs checked, %d faults injected\n%!"
        (tally "runs" rows) (tally "faults" rows)
  | Security ->
      header
        "Cost of isolation: {strict, audit, permissive} x {CODOMs, CHERI,\n\
         MMP} x {clean, under-attack} (both interpreter paths per cell)";
      security_summary (run ())
  | Open arrival ->
      header
        (Printf.sprintf
           "Open-arrival load sweep (%s arrivals): offered load vs tail\n\
            latency per IPC primitive, %d sessions/cell, 4 CPUs"
           (OL.arrival_name arrival) open_sweep_sessions);
      open_summary arrival (run ())

(* ================= paper experiments ================= *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("table1", table1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("sens-calls", sens_calls);
    ("sens-caps", sens_caps);
    ("stub-coopt", stub_coopt);
    ("templates", templates);
    ("ablate", ablate);
    ("ablate-gvas", ablate_gvas);
    ("bechamel", bechamel);
  ]
