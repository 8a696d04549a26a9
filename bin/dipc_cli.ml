(* dIPC command-line interface: the one front end to the simulated
   system, the paper's evaluation and the pinned benchmark suite.

     dune exec bin/dipc_cli.exe -- call --policy high --cross
     dune exec bin/dipc_cli.exe -- ipc --primitive rpc
     dune exec bin/dipc_cli.exe -- oltp --config dipc --threads 16
     dune exec bin/dipc_cli.exe -- disasm --policy high
     dune exec bin/dipc_cli.exe -- trace --primitive sem --out trace.json
     dune exec bin/dipc_cli.exe -- open --primitive sem --load 0.95
     dune exec bin/dipc_cli.exe -- run fig5 fig8 oltp_dipc_mem96
     dune exec bin/dipc_cli.exe -- suite --json BENCH.json
     dune exec bin/dipc_cli.exe -- compare bench/BENCH_baseline.json BENCH.json

   [run] runs paper experiments or registry cells by name, [suite] one
   family of registry cells (digest suite, fault matrix, posture
   matrix, open-arrival sweep), and [compare] checks a digest-suite
   report against the committed baseline.  [ipc --all] and
   [oltp --sweep] build their grids from the same cell functions as
   the single runs.  Every cell goes through the bench suite's one
   runner ([Suite.run_cells]), and every usage error exits 124.
*)

module Costs = Dipc_sim.Costs
module Stats = Dipc_sim.Stats
module Trace = Dipc_sim.Trace
module Inject = Dipc_sim.Inject
module Parallel = Dipc_sim.Parallel
module Suite = Dipc_bench_suite.Suite
module Golden = Dipc_bench_suite.Golden
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

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let opt ?docv ?vopt name c default doc =
  Arg.(value & opt ?vopt c default & info [ name ] ?docv ~doc)

(* [conv] restricted to the values [ok] accepts; any other is a usage
   error naming [what] was expected. *)
let checked conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let policy =
  opt "policy" (Arg.enum [ ("low", Types.props_low); ("high", Types.props_high) ])
    Types.props_low "low or high"

let cross = flag "cross" "cross-process call (dIPC +proc)"

let tls_opt = flag "tls-opt" "optimised TLS mode (Sec. 6.1.2)"

(* The options of a run and its grid, parsed once: [Suite.run_cells]
   applies them to every cell. *)
let opts =
  let check =
    flag "check"
      "run under event tracing with the online invariant checker attached; any \
       scheduler-invariant violation aborts loudly"
  in
  let inject =
    opt "inject" ~docv:"SEED" Arg.(some int) None
      "install a seeded fault injector (delayed/lost IPIs, spurious futex wakeups, \
       forced preemptions); the same seed reproduces the same fault schedule"
  in
  let jobs =
    opt "jobs" ~docv:"N" (checked Arg.int (fun n -> n >= 0) "a non-negative integer") 1
      "shard independent runs over $(docv) OCaml domains (0 = one per recommended \
       core); per-run digests and printed results are identical at any $(docv)"
  in
  Term.(
    const (fun check inject_seed jobs ->
        let jobs = if jobs = 0 then Parallel.default_jobs () else jobs in
        { Suite.check; inject_seed; jobs })
    $ check $ inject $ jobs)

(* The interpreter escape hatch: --reference forces the reference
   stepper instead of the compiled superblock path.  Machines are
   created inside the workloads, so the term flips the process-wide
   creation default before the command runs.  Results and digests are
   identical either way. *)
let reference =
  Term.(
    const Dipc_hw.Machine.set_default_reference
    $ flag "reference"
        "force the machine's reference interpreter: disable the compiled superblock \
         path.  Results and digests are identical either way; this is a triage \
         escape hatch")

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
  { Suite.name; run }

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

(* The primitive, placement and argument size of [ipc] and [trace]. *)
let primitive = opt "primitive" (Arg.enum primitives) M.Sem "sem|pipe|l4|rpc|user-rpc"

let same_cpu = flag "same-cpu" "pin both sides to one CPU"

let bytes = opt "bytes" Arg.int 1 "argument size"

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
  let all = flag "all" "run every primitive in both placements (honours $(b,--jobs))" in
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
    opt "config" (Arg.enum [ ("linux", O.Linux); ("dipc", O.Dipc); ("ideal", O.Ideal) ])
      O.Dipc "linux|dipc|ideal"
  in
  let threads = opt "threads" Arg.int 16 "per component" in
  let on_disk = flag "on-disk" "on-disk database" in
  let sweep = flag "sweep" "run all three configurations (honours $(b,--jobs))" in
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

let arrival_conv =
  let parse s =
    Option.to_result (OL.arrival_of_string s)
      ~none:(`Msg (Printf.sprintf "expected poisson, bursty or diurnal, got %S" s))
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (OL.arrival_name a))

let open_cmd =
  let prim =
    opt "primitive" (Arg.enum (List.map (fun p -> (p, p)) Suite.open_prims)) "dipc"
      "sem|pipe|l4|rpc|dipc"
  in
  let arrival = opt "arrival" arrival_conv OL.Poisson "poisson|bursty|diurnal" in
  let load = opt "load" ~docv:"RHO" Arg.float 0.85 "offered load (rho; > 1 is overload)" in
  let sessions = opt "sessions" Arg.int 100_000 "client sessions to simulate" in
  let seed = opt "seed" Arg.int 42 "RNG seed" in
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
    (M.primitive_name primitive) (Suite.placement same_cpu) bytes iters;
  Printf.printf "  mean %.1f ns per round trip\n" r.M.mean_ns;
  Printf.printf "  %d events traced (%d retained, %d overwritten)\n"
    (Trace.total tr)
    (List.length (Trace.events tr))
    (Trace.dropped tr);
  Printf.printf "  replay digest %s\n" (Trace.digest_hex tr);
  Printf.printf "  wrote %s (open in chrome://tracing or ui.perfetto.dev)\n" out

let trace_cmd =
  let iters = opt "iters" Arg.int 50 "round trips" in
  let out = opt "out" Arg.string "trace.json" "output file" in
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

(* --- run: paper experiments and registry cells by name --- *)

let run_names names o () =
  let run name =
    match List.assoc_opt name Suite.experiments with
    | Some f -> f ()
    | None -> ignore (Suite.run_cells o (Option.to_list (Suite.find name)))
  in
  List.iter run (if names = [] then List.map fst Suite.experiments else names)

let run_cmd =
  let name =
    let parse name =
      if List.mem_assoc name Suite.experiments || Suite.find name <> None then Ok name
      else
        Error
          (`Msg
            (Printf.sprintf "unknown experiment %s; available: %s (or a registry cell name)"
               name (String.concat " " (List.map fst Suite.experiments))))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let names =
    Arg.(
      value & pos_all name []
      & info [] ~docv:"NAME"
          ~doc:"a paper experiment or a registry cell; none runs every experiment")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "regenerate the paper's tables and figures, or run registry cells and print \
          their report lines")
    Term.(const run_names $ names $ opts $ reference)

(* --- suite: one family of registry cells --- *)

let suite_cmd =
  let json =
    opt "json" ~docv:"FILE" ~vopt:(Some "BENCH_fixed_seed.json") Arg.(some string) None
      "the fixed-seed digest suite (the 37 pinned cells): write its dipc-bench/v1 \
       report to $(docv) and a history row to BENCH_latest.jsonl next to it"
  in
  let matrix =
    flag "matrix"
      "the fault-injection matrix over every IPC primitive and the OLTP/netpipe \
       workloads; $(b,--inject) sets its base seed"
  in
  let security =
    flag "security"
      "the cost-of-isolation posture matrix: {strict, audit, permissive} x {CODOMs, \
       CHERI, MMP} x {clean, under-attack}, both interpreter paths per cell"
  in
  let open_ =
    opt "open" ~docv:"ARRIVAL" ~vopt:(Some OL.Poisson) Arg.(some arrival_conv) None
      "the open-arrival load sweep (tail latency vs offered load per IPC primitive, \
       >1M client sessions); $(docv) is poisson (the default), bursty or diurnal"
  in
  let family json matrix security open_ =
    let on b f = if b then [ (f, None) ] else [] in
    match
      Option.fold ~none:[] ~some:(fun out -> [ (Suite.Pinned, Some out) ]) json
      @ on matrix Suite.Matrix @ on security Suite.Security
      @ Option.fold ~none:[] ~some:(fun a -> [ (Suite.Open a, None) ]) open_
    with
    | [ f ] -> `Ok f
    | _ -> `Error (true, "give exactly one of --json, --matrix, --security, --open")
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"run one family of the benchmark suite's registry cells")
    Term.(
      const (fun o () (family, out) -> Suite.report ?out o family)
      $ opts $ reference
      $ ret (const family $ json $ matrix $ security $ open_))

(* --- compare: a digest-suite report against the baseline --- *)

(* Print each mismatch as two aligned lines under [label]; true when
   there is none. *)
let print_mismatches label width mms =
  List.iter
    (fun m ->
      Printf.printf "%s %-*s expected %s\n%*s got %s\n" label width m.Golden.mm_name
        m.Golden.mm_expected (String.length label + 1 + width) "" m.Golden.mm_actual)
    mms;
  mms = []

let print_trend file =
  match Golden.trend_report ~history:(Golden.read_file file) with
  | Ok lines -> List.iter print_endline lines
  | Error m | (exception Sys_error m) -> Printf.printf "trend: %s (skipping)\n" m

(* The golden digest, every per-cell digest and, when asked, every
   counter cell, the sim-MIPS floor and the wall budget; exit 1 on any
   failure.  The trend report never affects the exit code. *)
let compare_reports baseline candidate budget counters ratchet trend =
  let baseline = Golden.read_file baseline and candidate = Golden.read_file candidate in
  let golden =
    match (Golden.scalar_string baseline "golden_digest", Golden.scalar_string candidate "golden_digest") with
    | Some b, Some c when b = c -> Printf.printf "golden digest %s OK\n" c; true
    | b, c ->
        let str = Option.value ~default:"<missing>" in
        Printf.printf "golden digest MISMATCH: baseline %s, candidate %s\n" (str b) (str c);
        false
  in
  let digests =
    let mms = Golden.compare_digests ~baseline ~candidate in
    let total = List.length (Golden.parse_report baseline) in
    if mms = [] then Printf.printf "%d/%d experiment digests match the baseline\n" total total;
    print_mismatches "MISMATCH" 20 mms
  in
  let counters =
    (not counters)
    ||
    let mms = Golden.compare_counters ~baseline ~candidate in
    if mms = [] then print_endline "all per-experiment counters match the baseline";
    print_mismatches "COUNTER MISMATCH" 32 mms
  in
  let ratchet =
    match ratchet with
    | None -> true
    | Some ratio ->
        let mms = Golden.compare_mips_ratchet ~ratio ~baseline ~candidate in
        if mms = [] then Printf.printf "sim_mips ratchet OK (floor %.2f x baseline)\n" ratio;
        print_mismatches "MIPS RATCHET" 20 mms
  in
  let budget =
    match (budget, Golden.scalar_float candidate "total_wall_s") with
    | None, _ -> true
    | Some b, Some w ->
        Printf.printf "total_wall_s %.3f %s budget %.1f s\n" w
          (if w <= b then "within" else "EXCEEDS") b;
        w <= b
    | Some _, None -> print_endline "candidate has no total_wall_s field"; false
  in
  Option.iter print_trend trend;
  if not (golden && digests && counters && ratchet && budget) then exit 1

let compare_cmd =
  let reports =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"BASELINE CANDIDATE"
          ~doc:"the committed report (bench/BENCH_baseline.json) and a fresh $(b,suite --json) one")
  in
  let budget =
    opt "budget" ~docv:"SECONDS" Arg.(some float) None
      "also fail when the candidate's total_wall_s exceeds $(docv)"
  in
  let counters =
    flag "counters"
      "also require every counter cell of every row to equal the baseline's (only \
       meaningful when both ran the same dispatch path)"
  in
  let ratchet =
    opt "mips-ratchet" ~docv:"RATIO"
      Arg.(some (checked float (fun r -> r > 0.) "a positive ratio"))
      None "also require each row's sim_mips to stay >= $(docv) x the baseline's"
  in
  let trend =
    opt "trend" ~docv:"FILE" Arg.(some string) None
      "report per-cell sim-MIPS and counter deltas between the last two rows of the \
       BENCH_latest.jsonl history $(docv); informational, never affects the exit code"
  in
  let run reports budget counters ratchet trend =
    match (reports, trend) with
    | [ b; c ], _ -> `Ok (compare_reports b c budget counters ratchet trend)
    | [], Some f -> `Ok (print_trend f)
    | _ -> `Error (true, "give BASELINE and CANDIDATE, or --trend FILE alone")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "check a digest-suite report against the baseline: the golden and every \
          per-cell digest must match (exit 1 otherwise)")
    Term.(ret (const run $ reports $ budget $ counters $ ratchet $ trend))

let () =
  let info =
    Cmd.info "dipc" ~version:"1.0.0"
      ~doc:"direct inter-process communication on a simulated CODOMs machine"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ call_cmd; ipc_cmd; oltp_cmd; open_cmd; disasm_cmd; trace_cmd; run_cmd; suite_cmd;
            compare_cmd ]))
