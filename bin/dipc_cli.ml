(* dIPC command-line interface: poke at the simulated system without
   writing code.

     dune exec bin/dipc_cli.exe -- call --policy high --cross
     dune exec bin/dipc_cli.exe -- ipc --primitive rpc
     dune exec bin/dipc_cli.exe -- oltp --config dipc --threads 16
     dune exec bin/dipc_cli.exe -- disasm --policy high
     dune exec bin/dipc_cli.exe -- trace --primitive sem --out trace.json
     dune exec bin/dipc_cli.exe -- open --primitive sem --load 0.95

   [ipc --all] and [oltp --sweep] run their grids through the bench
   suite's cell runner ([Suite.run_cells]), built from the same cell
   functions as the single runs.  The suite modes (digest suite, fault
   matrix, posture matrix, open-arrival sweep) run from bench/main.exe:
   --json, --matrix, --security, --open ARRIVAL.
*)

module Costs = Dipc_sim.Costs
module Stats = Dipc_sim.Stats
module Trace = Dipc_sim.Trace
module Inject = Dipc_sim.Inject
module Parallel = Dipc_sim.Parallel
module Suite = Dipc_bench_suite.Suite
module Types = Dipc_core.Types
module Scenario = Dipc_core.Scenario
module Proxy = Dipc_core.Proxy
module Isa = Dipc_hw.Isa
module M = Dipc_workloads.Microbench
module O = Dipc_workloads.Oltp
module OL = Dipc_workloads.Openload
module Histogram = Dipc_sim.Histogram

open Cmdliner

(* --- shared arguments --- *)

let policy_conv =
  Arg.enum [ ("low", Types.props_low); ("high", Types.props_high) ]

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

let resolve n = if n = 0 then Parallel.default_jobs () else n

(* The options of a run and its grid, parsed once: [Suite.run_cells]
   applies them to every cell. *)
let opts =
  Term.(
    const (fun check inject_seed jobs ->
        { Suite.check; inject_seed; jobs = resolve jobs })
    $ check_arg $ inject_arg $ jobs_arg)

(* The interpreter escape hatch: --reference forces the reference
   stepper instead of the compiled superblock path.  Machines are
   created inside the workloads, so the term flips the process-wide
   creation default before the command runs.  Results and digests are
   identical either way. *)
let reference =
  Term.(
    const Dipc_hw.Machine.set_default_reference
    $ Arg.(
        value & flag
        & info [ "reference" ]
            ~doc:
              "force the machine's reference interpreter: disable the \
               compiled superblock path.  Results and digests are \
               identical either way; this is a triage escape hatch"))

(* A single run's checker verdict, printed before its report. *)
let report_checker (o : Suite.obs) =
  Option.iter
    (Printf.printf "  checker: %d events seen, all invariants hold\n")
    o.Suite.seen

(* A single run's injection tally and replay digest. *)
let report_obs (o : Suite.obs) =
  Option.iter
    (fun inj -> Fmt.pr "  injected: %a@." Inject.pp_stats (Inject.stats inj))
    o.Suite.inj;
  Option.iter
    (fun tr -> Printf.printf "  replay digest %s\n" (Trace.digest_hex tr))
    o.Suite.tr

(* A grid cell: [run] returns the run's report line body, to which the
   replay digest of a traced run and the checker's verdict are added. *)
let grid_cell name run =
  let run o =
    let line, (obs : Suite.obs) = run o in
    Suite.line_row name ~digest:(Suite.digest obs)
      (line
      ^ (match obs.Suite.tr with
        | Some tr -> "  digest=" ^ Trace.digest_hex tr
        | None -> "")
      ^ (match obs.Suite.seen with
        | Some n -> Printf.sprintf "  checker=%d events ok" n
        | None -> "")
      ^ "\n")
  in
  { Suite.name; family = Suite.Grid; run }

(* Run a grid's cells under [header]. *)
let run_grid (o : Suite.opts) header cells =
  Printf.printf "%s (%d jobs):\n" header o.Suite.jobs;
  ignore (Suite.run_cells o cells)

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

let primitives =
  [ ("sem", M.Sem); ("pipe", M.Pipe); ("l4", M.L4); ("rpc", M.Local_rpc); ("user-rpc", M.User_rpc_prim) ]

let primitive_conv = Arg.enum primitives

(* The single run and every cell of the --all grid. *)
let ipc_run ~bytes (o : Suite.opts) prim ~same_cpu =
  Suite.observe_micro ~traced:false ~bytes ~check:o.Suite.check
    ?inject_seed:o.Suite.inject_seed prim ~same_cpu

let ipc_grid ~bytes =
  List.concat_map
    (fun (pname, prim) ->
      List.map
        (fun same_cpu ->
          let place = Suite.placement same_cpu in
          grid_cell ("ipc/" ^ pname ^ "/" ^ place) (fun o ->
              let r, obs = ipc_run ~bytes o prim ~same_cpu in
              (Printf.sprintf "  %-9s %-6s %9.1f ns" pname place r.M.mean_ns, obs)))
        [ true; false ])
    primitives

let run_ipc primitive same_cpu bytes all o () =
  if all then
    run_grid o
      (Printf.sprintf "IPC primitive grid, %d-byte argument" bytes)
      (ipc_grid ~bytes)
  else begin
    let r, obs = ipc_run ~bytes o primitive ~same_cpu in
    report_checker obs;
    Printf.printf "%s (%s), %d-byte argument:\n" (M.primitive_name primitive)
      (Suite.placement same_cpu) bytes;
    Printf.printf "  %.1f ns per synchronous round trip\n" r.M.mean_ns;
    report_obs obs;
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
    Term.(const run_ipc $ primitive $ same_cpu $ bytes $ all $ opts $ reference)

(* --- oltp: one macro-benchmark cell --- *)

(* The single run and every cell of the --sweep grid. *)
let oltp_run (o : Suite.opts) ~config ~db_mode ~threads =
  Suite.observe_oltp ~traced:false ~check:o.Suite.check
    ?inject_seed:o.Suite.inject_seed ~config ~db_mode ~threads ()

let oltp_grid ~threads ~db_mode =
  List.map
    (fun config ->
      grid_cell ("oltp/" ^ O.config_name config) (fun o ->
          let r, obs = oltp_run o ~config ~db_mode ~threads in
          ( Printf.sprintf
              "  %-6s tput=%8.0f opm  lat=%6.2f ms  user/kern/idle = \
               %4.1f/%4.1f/%4.1f%%"
              (O.config_name config) r.O.r_throughput_opm
              (r.O.r_latency_ns.Stats.s_mean /. 1e6)
              (100. *. r.O.r_user_frac) (100. *. r.O.r_kernel_frac)
              (100. *. r.O.r_idle_frac),
            obs )))
    [ O.Linux; O.Dipc; O.Ideal ]

let run_oltp config threads on_disk sweep o () =
  let db_mode = if on_disk then O.On_disk else O.In_memory in
  let db = if on_disk then "on-disk" else "in-memory" in
  if sweep then
    run_grid o
      (Printf.sprintf "OLTP sweep, %d threads/component, %s DB" threads db)
      (oltp_grid ~threads ~db_mode)
  else begin
    let r, obs = oltp_run o ~config ~db_mode ~threads in
    report_checker obs;
    Printf.printf "%s, %d threads/component, %s DB:\n" (O.config_name config)
      threads db;
    report_obs obs;
    Printf.printf "  throughput %.0f ops/min, latency %.2f ms\n"
      r.O.r_throughput_opm
      (r.O.r_latency_ns.Stats.s_mean /. 1e6);
    Printf.printf "  user %.1f%%  kernel %.1f%%  idle %.1f%%\n"
      (100. *. r.O.r_user_frac) (100. *. r.O.r_kernel_frac)
      (100. *. r.O.r_idle_frac)
  end

let oltp_cmd =
  let config =
    Arg.(
      value
      & opt (enum [ ("linux", O.Linux); ("dipc", O.Dipc); ("ideal", O.Ideal) ]) O.Dipc
      & info [ "config" ] ~doc:"linux|dipc|ideal")
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
    Term.(const run_oltp $ config $ threads $ on_disk $ sweep $ opts $ reference)

(* --- open: open-arrival load generator (millions of sessions) --- *)

let run_open prim arrival load sessions seed () =
  let service_ns = List.assoc prim (Suite.open_costs ()) in
  let p =
    OL.default_params ~seed ~sessions ~offered_load:load ~arrival ~service_ns ()
  in
  let r = OL.run p in
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

let open_cmd =
  let prim =
    Arg.(
      value
      & opt (enum (List.map (fun p -> (p, p)) Suite.open_prims)) "dipc"
      & info [ "primitive" ] ~doc:"sem|pipe|l4|rpc|dipc")
  in
  let arrival =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun a -> (OL.arrival_name a, a))
                [ OL.Poisson; OL.Bursty; OL.Diurnal ]))
          OL.Poisson
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
  Cmd.v
    (Cmd.info "open"
       ~doc:
         "drive the system with an open-arrival session stream and report \
          tail latency percentiles")
    Term.(
      const run_open $ prim $ arrival $ load $ sessions $ seed $ reference)

(* --- trace: export a Chrome trace of a microbench run --- *)

let run_trace primitive same_cpu bytes iters out () =
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
      const run_trace $ primitive $ same_cpu $ bytes $ iters $ out $ reference)

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
            disasm_cmd;
            trace_cmd;
          ]))
