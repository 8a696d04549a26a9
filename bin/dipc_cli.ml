(* dIPC command-line interface: poke at the simulated system without
   writing code.

     dune exec bin/dipc_cli.exe -- call --policy high --cross
     dune exec bin/dipc_cli.exe -- ipc --primitive rpc
     dune exec bin/dipc_cli.exe -- oltp --config dipc --threads 16
     dune exec bin/dipc_cli.exe -- disasm --policy high
     dune exec bin/dipc_cli.exe -- trace --primitive sem --out trace.json
*)

module Costs = Dipc_sim.Costs
module Stats = Dipc_sim.Stats
module Trace = Dipc_sim.Trace
module Inject = Dipc_sim.Inject
module Checker = Dipc_sim.Checker
module Parallel = Dipc_sim.Parallel
module Suite = Dipc_bench_suite.Suite
module Types = Dipc_core.Types
module Scenario = Dipc_core.Scenario
module Proxy = Dipc_core.Proxy
module Asm = Dipc_core.Asm
module Isa = Dipc_hw.Isa
module M = Dipc_workloads.Microbench
module O = Dipc_workloads.Oltp
module OL = Dipc_workloads.Openload
module Histogram = Dipc_sim.Histogram

open Cmdliner

(* --- shared arguments --- *)

let policy_conv =
  let parse = function
    | "low" -> Ok Types.props_low
    | "high" -> Ok Types.props_high
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S (low|high)" s))
  in
  let print ppf p =
    Fmt.string ppf (if p = Types.props_high then "high" else "low")
  in
  Arg.conv (parse, print)

let policy =
  Arg.(value & opt policy_conv Types.props_low & info [ "policy" ] ~doc:"low or high")

let cross =
  Arg.(value & flag & info [ "cross" ] ~doc:"cross-process call (dIPC +proc)")

let tls_opt =
  Arg.(value & flag & info [ "tls-opt" ] ~doc:"optimised TLS mode (Sec. 6.1.2)")

let inject_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "inject" ] ~docv:"SEED"
        ~doc:
          "install a seeded fault injector (delayed/lost IPIs, spurious \
           futex wakeups, forced preemptions); the same seed reproduces \
           the same fault schedule")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "run under event tracing with the online invariant checker \
           attached; any scheduler-invariant violation aborts loudly")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "shard independent runs over $(docv) OCaml domains (0 = one per \
           recommended core); per-run digests and printed results are \
           identical at any $(docv)")

let resolve_jobs n = if n = 0 then Parallel.default_jobs () else n

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "partition a single simulation into $(docv) shards advanced in \
           conservative lookahead windows on separate OCaml domains \
           (DESIGN.md Sec. 14); digests and printed results are \
           byte-identical at any $(docv).  1 (the default) is the serial \
           reference path, 0 means one shard per recommended core")

let resolve_shards n = if n = 0 then Parallel.default_jobs () else n

(* The interpreter escape hatch: --reference forces the reference
   stepper instead of the compiled superblock path.  Machines are
   created inside the workloads, so each command flips the process-wide
   creation default before any run starts.  Results and digests are
   identical either way. *)
let reference_arg =
  Arg.(
    value & flag
    & info [ "reference" ]
        ~doc:
          "force the machine's reference interpreter: disable the compiled \
           superblock path.  Results and digests are identical either way; \
           this is a triage escape hatch")

(* One injector per run from the CLI seed; [None] leaves every hook a
   no-op. *)
let mk_inject = Option.map (fun seed -> Inject.create ~seed ())

let mk_checker check =
  if not check then (None, None)
  else begin
    let tr = Trace.create () in
    let c = Checker.create () in
    Checker.attach c tr;
    (Some tr, Some c)
  end

(* Silent variant for parallel grid cells: output is pre-rendered on the
   worker and printed by the main domain in submission order. *)
let finish_checker_silent ?quiescent ?expect tr chk =
  match (tr, chk) with
  | Some tr, Some c ->
      Checker.finish ?quiescent ?expect c;
      Checker.detach tr;
      Some (Checker.events_seen c)
  | _ -> None

let finish_checker ?quiescent ?expect tr chk =
  match finish_checker_silent ?quiescent ?expect tr chk with
  | Some seen ->
      Printf.printf "  checker: %d events seen, all invariants hold\n" seen
  | None -> ()

let report_inject inject =
  match inject with
  | Some inj -> Fmt.pr "  injected: %a@." Inject.pp_stats (Inject.stats inj)
  | None -> ()

(* --- call: measure one dIPC configuration --- *)

let run_call policy cross tls_opt =
  let s =
    Scenario.make ~same_process:(not cross) ~tls_optimized:tls_opt
      ~caller_props:policy ~callee_props:policy ()
  in
  let m = Scenario.measure s in
  Printf.printf "dIPC %s call, %s policy%s:\n"
    (if cross then "cross-process" else "same-process")
    (if policy = Types.props_high then "High" else "Low")
    (if tls_opt then ", optimised TLS" else "");
  Printf.printf "  %.1f ns per call (%.0fx a function call; sd %.2f)\n"
    m.Stats.s_mean
    (m.Stats.s_mean /. Costs.function_call)
    m.Stats.s_stddev

let call_cmd =
  Cmd.v
    (Cmd.info "call" ~doc:"measure a warm dIPC call on the machine model")
    Term.(const run_call $ policy $ cross $ tls_opt)

(* --- ipc: measure a baseline primitive --- *)

let primitive_conv =
  let parse = function
    | "sem" -> Ok M.Sem
    | "pipe" -> Ok M.Pipe
    | "l4" -> Ok M.L4
    | "rpc" -> Ok M.Local_rpc
    | "user-rpc" -> Ok M.User_rpc_prim
    | s -> Error (`Msg (Printf.sprintf "unknown primitive %S" s))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (M.primitive_name p))

(* The full primitive x placement grid as independent runner tasks: each
   cell builds its own trace/checker/injector and returns a pre-rendered
   line, so output is identical at any --jobs. *)
let run_ipc_all bytes inject_seed check jobs =
  let prims =
    [
      (M.Sem, "sem");
      (M.Pipe, "pipe");
      (M.L4, "l4");
      (M.Local_rpc, "rpc");
      (M.User_rpc_prim, "user-rpc");
    ]
  in
  let cell (prim, name) same_cpu =
    ( Printf.sprintf "%s/%s" name (if same_cpu then "=CPU" else "!=CPU"),
      fun () ->
        let inject = mk_inject inject_seed in
        let tr, chk = mk_checker check in
        let r = M.run ~bytes ?trace:tr ?inject ~same_cpu prim in
        let seen =
          finish_checker_silent ~quiescent:(prim <> M.L4) ~expect:r.M.lifetime
            tr chk
        in
        Printf.sprintf "  %-9s %-6s %9.1f ns%s%s\n" name
          (if same_cpu then "=CPU" else "!=CPU")
          r.M.mean_ns
          (match tr with
          | Some tr -> "  digest=" ^ Trace.digest_hex tr
          | None -> "")
          (match seen with
          | Some n -> Printf.sprintf "  checker=%d events ok" n
          | None -> "") )
  in
  let cells =
    List.concat_map
      (fun p -> List.map (cell p) [ true; false ])
      prims
  in
  let jobs = resolve_jobs jobs in
  Printf.printf "IPC primitive grid, %d-byte argument (%d jobs):\n" bytes jobs;
  let out = Parallel.run ~jobs (Array.of_list cells) in
  Array.iter (fun o -> print_string o.Parallel.o_value) out;
  flush stdout

let run_ipc primitive same_cpu bytes inject_seed check all jobs reference =
  Dipc_hw.Machine.set_default_reference reference;
  if all then run_ipc_all bytes inject_seed check jobs
  else begin
    let inject = mk_inject inject_seed in
    let tr, chk = mk_checker check in
    let r = M.run ~bytes ?trace:tr ?inject ~same_cpu primitive in
    (* The L4 server's final reply_and_wait parks it forever by design:
       skip the quiescence assertion for that primitive only. *)
    finish_checker ~quiescent:(primitive <> M.L4) ~expect:r.M.lifetime tr chk;
    Printf.printf "%s (%s), %d-byte argument:\n" (M.primitive_name primitive)
      (if same_cpu then "=CPU" else "!=CPU")
      bytes;
    Printf.printf "  %.1f ns per synchronous round trip\n" r.M.mean_ns;
    report_inject inject;
    (match tr with
    | Some tr -> Printf.printf "  replay digest %s\n" (Trace.digest_hex tr)
    | None -> ());
    Array.iteri
      (fun i bd ->
        if Dipc_sim.Breakdown.total bd > 1. then
          Fmt.pr "  CPU %d: %a@." (i + 1) Dipc_sim.Breakdown.pp bd)
      r.M.per_cpu
  end

let ipc_cmd =
  let primitive =
    Arg.(
      value
      & opt primitive_conv M.Sem
      & info [ "primitive" ] ~doc:"sem|pipe|l4|rpc|user-rpc")
  in
  let same_cpu =
    Arg.(value & flag & info [ "same-cpu" ] ~doc:"pin both sides to one CPU")
  in
  let bytes = Arg.(value & opt int 1 & info [ "bytes" ] ~doc:"argument size") in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"run every primitive in both placements (honours $(b,--jobs))")
  in
  Cmd.v
    (Cmd.info "ipc" ~doc:"measure a baseline IPC primitive on the kernel model")
    Term.(
      const run_ipc $ primitive $ same_cpu $ bytes $ inject_arg $ check_arg
      $ all $ jobs_arg $ reference_arg)

(* --- oltp: one macro-benchmark cell --- *)

(* All three configurations as independent runner tasks (the Figure 8
   column at one thread count). *)
let run_oltp_sweep threads on_disk inject_seed check jobs =
  let db_mode = if on_disk then O.On_disk else O.In_memory in
  let cell config =
    ( O.config_name config,
      fun () ->
        let inject = mk_inject inject_seed in
        let tr, chk = mk_checker check in
        let r = O.run ?trace:tr ?inject ~config ~db_mode ~threads () in
        let seen = finish_checker_silent ~quiescent:false tr chk in
        Printf.sprintf
          "  %-6s tput=%8.0f opm  lat=%6.2f ms  user/kern/idle = \
           %4.1f/%4.1f/%4.1f%%%s%s\n"
          (O.config_name config) r.O.r_throughput_opm
          (r.O.r_latency_ns.Stats.s_mean /. 1e6)
          (100. *. r.O.r_user_frac)
          (100. *. r.O.r_kernel_frac)
          (100. *. r.O.r_idle_frac)
          (match tr with
          | Some tr -> "  digest=" ^ Trace.digest_hex tr
          | None -> "")
          (match seen with
          | Some n -> Printf.sprintf "  checker=%d events ok" n
          | None -> "") )
  in
  let jobs = resolve_jobs jobs in
  Printf.printf "OLTP sweep, %d threads/component, %s DB (%d jobs):\n" threads
    (if on_disk then "on-disk" else "in-memory")
    jobs;
  let out =
    Parallel.run ~jobs (Array.of_list (List.map cell [ O.Linux; O.Dipc; O.Ideal ]))
  in
  Array.iter (fun o -> print_string o.Parallel.o_value) out;
  flush stdout

let run_oltp config threads on_disk inject_seed check sweep jobs reference =
  Dipc_hw.Machine.set_default_reference reference;
  if sweep then run_oltp_sweep threads on_disk inject_seed check jobs
  else begin
    let config =
      match config with
      | "linux" -> O.Linux
      | "dipc" -> O.Dipc
      | "ideal" -> O.Ideal
      | s -> failwith ("unknown config " ^ s)
    in
    let db_mode = if on_disk then O.On_disk else O.In_memory in
    let inject = mk_inject inject_seed in
    let tr, chk = mk_checker check in
    let r = O.run ?trace:tr ?inject ~config ~db_mode ~threads () in
    (* OLTP stops at a deadline with workers still parked: structural
       invariants only, no quiescence. *)
    finish_checker ~quiescent:false tr chk;
    Printf.printf "%s, %d threads/component, %s DB:\n" (O.config_name config)
      threads
      (if on_disk then "on-disk" else "in-memory");
    report_inject inject;
    (match tr with
    | Some tr -> Printf.printf "  replay digest %s\n" (Trace.digest_hex tr)
    | None -> ());
    Printf.printf "  throughput %.0f ops/min, latency %.2f ms\n"
      r.O.r_throughput_opm
      (r.O.r_latency_ns.Stats.s_mean /. 1e6);
    Printf.printf "  user %.1f%%  kernel %.1f%%  idle %.1f%%\n"
      (100. *. r.O.r_user_frac) (100. *. r.O.r_kernel_frac)
      (100. *. r.O.r_idle_frac)
  end

let oltp_cmd =
  let config =
    Arg.(value & opt string "dipc" & info [ "config" ] ~doc:"linux|dipc|ideal")
  in
  let threads = Arg.(value & opt int 16 & info [ "threads" ] ~doc:"per component") in
  let on_disk = Arg.(value & flag & info [ "on-disk" ] ~doc:"on-disk database") in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"run all three configurations (honours $(b,--jobs))")
  in
  Cmd.v
    (Cmd.info "oltp" ~doc:"run one cell of the Figure 8 macro-benchmark")
    Term.(
      const run_oltp $ config $ threads $ on_disk $ inject_arg $ check_arg
      $ sweep $ jobs_arg $ reference_arg)

(* --- open: open-arrival load generator (millions of sessions) --- *)

let arrival_conv =
  let parse s =
    match OL.arrival_of_string s with
    | Some a -> Ok a
    | None ->
        Error (`Msg (Printf.sprintf "unknown arrival %S (poisson|bursty|diurnal)" s))
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (OL.arrival_name a))

let run_open prim arrival load sessions seed sweep jobs shards reference =
  Dipc_hw.Machine.set_default_reference reference;
  let jobs = resolve_jobs jobs in
  let shards = resolve_shards shards in
  if sweep then ignore (Suite.open_sweep ~jobs ~shards ~arrival ())
  else begin
    let service_ns =
      match List.assoc_opt prim (Suite.open_costs ()) with
      | Some s -> s
      | None ->
          Printf.eprintf "unknown primitive %S (sem|pipe|l4|rpc|dipc)\n" prim;
          exit 2
    in
    let p =
      OL.default_params ~seed ~sessions ~offered_load:load ~arrival ~service_ns
        ()
    in
    let r = OL.run_sharded ~shards p in
    let pc q = Histogram.percentile r.OL.r_latency q in
    Printf.printf "%s, %s arrivals, offered load %.2f, %d sessions:\n" prim
      (OL.arrival_name arrival) load sessions;
    Printf.printf "  service demand %.1f ns/request (measured), %d CPUs\n"
      service_ns p.OL.servers;
    Printf.printf "  %d requests over %.2f simulated ms\n" r.OL.r_requests
      (r.OL.r_makespan_ns /. 1e6);
    Printf.printf "  latency p50 %.1f ns  p99 %.1f ns  p999 %.1f ns  mean %.1f ns\n"
      (pc 50.) (pc 99.) (pc 99.9)
      (Histogram.mean r.OL.r_latency);
    Printf.printf "  utilization %.3f  throughput %.0f req/s\n"
      (OL.utilization r ~servers:p.OL.servers)
      (OL.throughput_rps r);
    Printf.printf "  digest %s\n" r.OL.r_digest
  end

let open_cmd =
  let prim =
    Arg.(
      value & opt string "dipc"
      & info [ "primitive" ] ~doc:"sem|pipe|l4|rpc|dipc")
  in
  let arrival =
    Arg.(
      value
      & opt arrival_conv OL.Poisson
      & info [ "arrival" ] ~doc:"poisson|bursty|diurnal")
  in
  let load =
    Arg.(
      value & opt float 0.85
      & info [ "load" ] ~docv:"RHO" ~doc:"offered load (rho; > 1 is overload)")
  in
  let sessions =
    Arg.(
      value & opt int 100_000
      & info [ "sessions" ] ~doc:"client sessions to simulate")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed") in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "full load sweep: every IPC primitive vs dIPC across offered \
             loads, >1M sessions, with saturation knees (honours \
             $(b,--jobs))")
  in
  Cmd.v
    (Cmd.info "open"
       ~doc:
         "drive the system with an open-arrival session stream and report \
          tail latency percentiles")
    Term.(
      const run_open $ prim $ arrival $ load $ sessions $ seed $ sweep
      $ jobs_arg $ shards_arg $ reference_arg)

(* --- trace: export a Chrome trace of a microbench run --- *)

let run_trace primitive same_cpu bytes iters out reference =
  Dipc_hw.Machine.set_default_reference reference;
  let tr = Trace.create () in
  let r = M.run ~bytes ~iters ~trace:tr ~same_cpu primitive in
  let oc = open_out out in
  Trace.write_chrome oc tr;
  close_out oc;
  Printf.printf "%s (%s), %d-byte argument, %d iterations:\n"
    (M.primitive_name primitive)
    (if same_cpu then "=CPU" else "!=CPU")
    bytes iters;
  Printf.printf "  mean %.1f ns per round trip\n" r.M.mean_ns;
  Printf.printf "  %d events traced (%d retained, %d overwritten)\n"
    (Trace.total tr)
    (List.length (Trace.events tr))
    (Trace.dropped tr);
  Printf.printf "  replay digest %s\n" (Trace.digest_hex tr);
  Printf.printf "  wrote %s (open in chrome://tracing or ui.perfetto.dev)\n" out

let trace_cmd =
  let primitive =
    Arg.(
      value
      & opt primitive_conv M.Sem
      & info [ "primitive" ] ~doc:"sem|pipe|l4|rpc|user-rpc")
  in
  let same_cpu =
    Arg.(value & flag & info [ "same-cpu" ] ~doc:"pin both sides to one CPU")
  in
  let bytes = Arg.(value & opt int 1 & info [ "bytes" ] ~doc:"argument size") in
  let iters = Arg.(value & opt int 50 & info [ "iters" ] ~doc:"round trips") in
  let out =
    Arg.(value & opt string "trace.json" & info [ "out" ] ~doc:"output file")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"run a microbench under event tracing and export Chrome trace JSON")
    Term.(
      const run_trace $ primitive $ same_cpu $ bytes $ iters $ out
      $ reference_arg)

(* --- bench: the fixed-seed suite / fault matrix, sharded --- *)

let run_bench out matrix check inject_seed jobs reference =
  Dipc_hw.Machine.set_default_reference reference;
  let jobs = resolve_jobs jobs in
  if matrix then begin
    let runs, faults =
      Suite.fault_matrix ~verbose:true ?seed:inject_seed ~jobs ()
    in
    Printf.printf "fault matrix: %d runs checked, %d faults injected\n%!" runs
      faults
  end
  else Suite.bench_json ~check ?inject_seed ~jobs out

let bench_cmd =
  let out =
    Arg.(
      value
      & opt string "BENCH_fixed_seed.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"JSON report path")
  in
  let matrix =
    Arg.(
      value & flag
      & info [ "matrix" ]
          ~doc:
            "run the fault-injection matrix (every primitive and the \
             OLTP/netpipe workloads) instead of the digest suite")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "run the fixed-seed benchmark suite (or fault matrix), sharded over \
          --jobs domains; digests are identical at any job count")
    Term.(
      const run_bench $ out $ matrix $ check_arg $ inject_arg $ jobs_arg
      $ reference_arg)

(* --- disasm: show the generated proxy for a configuration --- *)

let run_disasm policy cross =
  let mem = Dipc_hw.Memory.create () in
  let cache = Proxy.cache_create () in
  let config =
    {
      Proxy.sig_ = Types.signature ~args:2 ~rets:1 ();
      eff = policy;
      cross_process = cross;
      tls_switch = cross;
    }
  in
  let g =
    Proxy.generate cache ~mem ~base:0x10000 ~target_addr:0xbeef00 ~target_tag:7
      config
  in
  Printf.printf
    "proxy for %s/%s (entry 0x%x, return path 0x%x, %d bytes):\n"
    (if cross then "cross-process" else "same-process")
    (if policy = Types.props_high then "High" else "Low")
    g.Proxy.g_entry g.Proxy.g_ret g.Proxy.g_bytes;
  let addr = ref 0x10000 in
  while !addr < 0x10000 + g.Proxy.g_bytes do
    (match Dipc_hw.Memory.fetch mem !addr with
    | Some Isa.Nop -> () (* alignment padding *)
    | Some i -> Fmt.pr "  %06x: %a@." !addr Isa.pp i
    | None -> ());
    addr := !addr + Isa.instr_bytes
  done

let disasm_cmd =
  Cmd.v
    (Cmd.info "disasm" ~doc:"print the generated proxy template")
    Term.(const run_disasm $ policy $ cross)

let () =
  let info =
    Cmd.info "dipc" ~version:"1.0.0"
      ~doc:"direct inter-process communication on a simulated CODOMs machine"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            call_cmd;
            ipc_cmd;
            oltp_cmd;
            open_cmd;
            bench_cmd;
            disasm_cmd;
            trace_cmd;
          ]))
