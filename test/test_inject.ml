(* Fault injection + checker, end to end: every IPC primitive runs clean
   under the invariant checker; seeded injection is deterministic
   (same seed => byte-identical digest) and perturbs the timeline
   without breaking any invariant or protocol outcome; disabled
   injection leaves runs byte-identical to the pinned golden digest.

   On a checker violation, [with_failure_dump] exports the offending
   run's Chrome trace into $DIPC_TRACE_DIR so CI can upload it as an
   artifact. *)

module Engine = Dipc_sim.Engine
module Trace = Dipc_sim.Trace
module Inject = Dipc_sim.Inject
module Parallel = Dipc_sim.Parallel
module Checker = Dipc_sim.Checker
module Breakdown = Dipc_sim.Breakdown
module Kernel = Dipc_kernel.Kernel
module Machine = Dipc_hw.Machine
module Apl = Dipc_hw.Apl
module Page_table = Dipc_hw.Page_table
module Memory = Dipc_hw.Memory
module Isa = Dipc_hw.Isa
module M = Dipc_workloads.Microbench
module O = Dipc_workloads.Oltp

(* Dump the run's Chrome trace on a checker violation, then re-raise:
   the CI workflow uploads $DIPC_TRACE_DIR as the failing-test
   artifact. *)
let with_failure_dump name tr f =
  try f () with
  | Checker.Violation _ as exn ->
      (match Sys.getenv_opt "DIPC_TRACE_DIR" with
      | Some dir when dir <> "" ->
          (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
           with Sys_error _ -> ());
          let path = Filename.concat dir (name ^ ".trace.json") in
          (try
             let oc = open_out path in
             Trace.write_chrome oc tr;
             close_out oc;
             Printf.eprintf "checker violation in %s: trace dumped to %s\n%!"
               name path
           with Sys_error _ -> ())
      | _ -> ());
      raise exn

(* Every primitive; the L4 server's final reply_and_wait parks forever
   by design, so that run finishes non-quiescent. *)
let primitives =
  [
    (M.Sem, "sem", true);
    (M.Pipe, "pipe", true);
    (M.L4, "l4", false);
    (M.Local_rpc, "rpc", true);
    (M.User_rpc_prim, "urpc", true);
  ]

let checked_micro ?inject ~name ~quiescent ~same_cpu prim =
  let tr = Trace.create () in
  let chk = Checker.create () in
  Checker.attach chk tr;
  let r = M.run ~warmup:5 ~iters:20 ~trace:tr ?inject ~same_cpu prim in
  with_failure_dump name tr (fun () ->
      Checker.finish ~quiescent ~expect:r.M.lifetime chk);
  Checker.detach tr;
  (Trace.digest_hex tr, r)

(* --- clean runs: checker silent on every primitive, both placements --- *)

let test_clean_runs_pass_checker () =
  List.iter
    (fun (prim, name, quiescent) ->
      List.iter
        (fun same_cpu ->
          let digest, r =
            checked_micro
              ~name:
                (Printf.sprintf "clean_%s_%s" name
                   (if same_cpu then "same" else "diff"))
              ~quiescent ~same_cpu prim
          in
          Alcotest.(check bool)
            (name ^ " digest nonempty")
            true
            (String.length digest = 16);
          Alcotest.(check bool) (name ^ " measured") true (r.M.mean_ns > 0.))
        [ true; false ])
    primitives

(* The checker is strictly observational: the pinned golden digest from
   test_trace.ml must come out unchanged with the checker attached. *)
let test_checker_preserves_golden_digest () =
  let digest, _ =
    checked_micro ~name:"golden" ~quiescent:true ~same_cpu:true M.Sem
  in
  Alcotest.(check string) "golden digest with checker attached"
    Test_trace.golden_digest digest

(* A zero-probability injector still draws decisions but never perturbs:
   byte-identical to the clean (golden) run. *)
let zero_config =
  {
    Inject.default_config with
    Inject.ipi_delay_p = 0.;
    ipi_lose_p = 0.;
    spurious_wake_p = 0.;
    preempt_p = 0.;
    apl_flush_p = 0.;
    creg_clobber_p = 0.;
  }

let test_zero_probability_injector_is_clean () =
  let inj = Inject.create ~config:zero_config ~seed:1 () in
  let digest, _ =
    checked_micro ~inject:inj ~name:"zero_inject" ~quiescent:true
      ~same_cpu:true M.Sem
  in
  Alcotest.(check string) "zero-probability injection = golden digest"
    Test_trace.golden_digest digest;
  Alcotest.(check int) "no faults injected" 0 (Inject.total_faults inj)

(* --- injected runs: deterministic, perturbing, invariant-preserving --- *)

let injected_digest ~config ~seed ~same_cpu (prim, name, quiescent) =
  let inj = Inject.create ~config ~seed () in
  let digest, r =
    checked_micro ~inject:inj
      ~name:(Printf.sprintf "inject_%s_seed%d" name seed)
      ~quiescent ~same_cpu prim
  in
  (digest, r, inj)

let test_same_seed_same_digest () =
  List.iter
    (fun spec ->
      let _, name, _ = spec in
      let d1, _, _ =
        injected_digest ~config:Inject.default_config ~seed:3 ~same_cpu:false
          spec
      in
      let d2, _, _ =
        injected_digest ~config:Inject.default_config ~seed:3 ~same_cpu:false
          spec
      in
      Alcotest.(check string) (name ^ ": same seed, same digest") d1 d2)
    primitives

let test_different_seed_different_digest () =
  let d1, _, _ =
    injected_digest ~config:Inject.aggressive_config ~seed:3 ~same_cpu:false
      (M.Sem, "sem", true)
  in
  let d2, _, _ =
    injected_digest ~config:Inject.aggressive_config ~seed:4 ~same_cpu:false
      (M.Sem, "sem", true)
  in
  Alcotest.(check bool) "different seed diverges the fault schedule" false
    (d1 = d2)

let test_injection_perturbs_timeline () =
  let clean, _ =
    checked_micro ~name:"perturb_clean" ~quiescent:true ~same_cpu:false M.Sem
  in
  let injected, _, inj =
    injected_digest ~config:Inject.aggressive_config ~seed:3 ~same_cpu:false
      (M.Sem, "sem", true)
  in
  Alcotest.(check bool) "faults actually fired" true
    (Inject.total_faults inj > 0);
  Alcotest.(check bool) "injected digest differs from clean" false
    (clean = injected)

let test_aggressive_matrix_passes_checker () =
  (* Both schedules, every primitive, both placements — invariants hold
     under fire.  The 20 independent cells go through the work-queue
     runner (checker violations surface as exceptions on the main
     domain); assertions run post-merge. *)
  let cells =
    List.concat_map
      (fun config ->
        List.concat_map
          (fun (prim, name, quiescent) ->
            List.map
              (fun same_cpu ->
                ( name,
                  fun () ->
                    let _, r, _ =
                      injected_digest ~config ~seed:11 ~same_cpu
                        (prim, name, quiescent)
                    in
                    (name, r.M.mean_ns) ))
              [ true; false ])
          primitives)
      [ Inject.default_config; Inject.aggressive_config ]
  in
  let out =
    Parallel.run ~jobs:(Parallel.default_jobs ()) (Array.of_list cells)
  in
  Array.iter
    (fun o ->
      let name, mean_ns = o.Parallel.o_value in
      Alcotest.(check bool)
        (name ^ " still measures round trips")
        true (mean_ns > 0.))
    out

let test_fault_stats_accounted () =
  let _, _, inj =
    injected_digest ~config:Inject.aggressive_config ~seed:3 ~same_cpu:false
      (M.Sem, "sem", true)
  in
  let s = Inject.stats inj in
  Alcotest.(check bool) "spurious wakes happened" true (s.Inject.spurious_wakes > 0);
  Alcotest.(check bool) "total = sum of classes" true
    (Inject.total_faults inj
    = s.Inject.ipis_delayed + s.Inject.ipis_lost + s.Inject.spurious_wakes
      + s.Inject.forced_preempts + s.Inject.apl_flushes + s.Inject.creg_clobbers);
  (* pp_stats renders without raising. *)
  Alcotest.(check bool) "pp_stats renders" true
    (String.length (Fmt.str "%a" Inject.pp_stats s) > 0)

(* --- OLTP under injection: deadline-stopped, structurally clean --- *)

let test_oltp_injected_checker_clean () =
  let p =
    {
      (O.default_params ~db_mode:O.In_memory ~threads:8) with
      O.warmup = 1_000_000.;
      duration = 20_000_000.;
    }
  in
  let run seed =
    let tr = Trace.create () in
    let chk = Checker.create () in
    Checker.attach chk tr;
    let inj = Inject.create ~seed () in
    let r =
      O.run ~params_override:(Some p) ~trace:tr ~inject:inj ~config:O.Dipc
        ~db_mode:O.In_memory ~threads:8 ()
    in
    with_failure_dump
      (Printf.sprintf "oltp_inject_seed%d" seed)
      tr
      (fun () -> Checker.finish ~quiescent:false chk);
    Checker.detach tr;
    (Trace.digest_hex tr, r)
  in
  let d1, r1 = run 5 in
  let d2, _ = run 5 in
  Alcotest.(check string) "oltp injected run reproducible" d1 d2;
  Alcotest.(check bool) "oltp still makes progress" true (r1.O.r_ops > 0)

(* The in-memory Linux cell under aggressive injection, pinned: delayed
   and lost IPIs (a wake queued behind a timer), spurious futex wakeups
   and forced preemption at quantum boundaries, which no pinned suite
   cell exercises on the kernel's park paths. *)
let test_oltp_linux_aggressive_pinned () =
  let tr = Trace.create () in
  let inj = Inject.create ~config:Inject.aggressive_config ~seed:3 () in
  let r =
    O.run ~seed:7 ~trace:tr ~inject:inj ~config:O.Linux ~db_mode:O.In_memory
      ~threads:16 ()
  in
  Alcotest.(check string) "injected Linux digest" "3f15f6c8655b345c"
    (Trace.digest_hex tr);
  Alcotest.(check int) "injected Linux ops" 261 r.O.r_ops

(* --- machine layer: crossing faults preserve architectural results --- *)

(* Ping-pong between two domains: A and B jump into each other 15 times,
   so aggressive injection gets plenty of crossings to flush APL caches
   and clobber capability registers on. *)
let crossing_storm ?inject () =
  let m = Machine.create () in
  (match inject with Some inj -> Machine.set_inject m (Some inj) | None -> ());
  let tag_a = Apl.fresh_tag m.Machine.apl in
  let tag_b = Apl.fresh_tag m.Machine.apl in
  let code_a = 0x100000 and code_b = 0x200000 in
  Page_table.map m.Machine.page_table ~addr:code_a ~count:1 ~tag:tag_a
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:code_b ~count:1 ~tag:tag_b
    ~writable:false ~executable:true ();
  Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Dipc_hw.Perm.Read;
  Apl.grant m.Machine.apl ~src:tag_b ~dst:tag_a Dipc_hw.Perm.Read;
  let loop_a = code_a + (2 * Isa.instr_bytes) in
  ignore
    (Memory.place_code m.Machine.mem ~addr:code_a
       [ Isa.Const (2, 0); Isa.Const (3, 8); (* loop_a: *) Isa.Jmp code_b ]);
  ignore
    (Memory.place_code m.Machine.mem ~addr:code_b
       [ Isa.Addi (2, 2, 1); Isa.Blt (2, 3, loop_a); Isa.Halt ]);
  let ctx = Machine.new_ctx m ~pc:code_a ~sp_value:0 in
  Machine.run m ctx;
  ctx

let test_machine_injection_preserves_results () =
  let clean = crossing_storm () in
  let inj = Inject.create ~config:Inject.aggressive_config ~seed:2 () in
  let faulty = crossing_storm ~inject:inj () in
  Alcotest.(check int) "same architectural result" clean.Machine.regs.(2)
    faulty.Machine.regs.(2);
  Alcotest.(check int) "same instructions retired" clean.Machine.instret
    faulty.Machine.instret;
  Alcotest.(check bool) "crossing faults fired" true
    (Inject.total_faults inj > 0);
  Alcotest.(check bool) "faults only ever add cost" true
    (faulty.Machine.cost >= clean.Machine.cost)

let test_machine_injection_deterministic () =
  let run () =
    let inj = Inject.create ~config:Inject.aggressive_config ~seed:2 () in
    let ctx = crossing_storm ~inject:inj () in
    (ctx.Machine.cost, Inject.total_faults inj)
  in
  let c1, f1 = run () in
  let c2, f2 = run () in
  Alcotest.(check (float 0.)) "same injected cost" c1 c2;
  Alcotest.(check int) "same fault count" f1 f2

(* --- the CI artifact path: a violation dumps a Chrome trace --- *)

let test_failure_dump_writes_trace () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dipc_traces_%d" (Unix.getpid ()))
  in
  Unix.putenv "DIPC_TRACE_DIR" dir;
  let tr = Trace.create () in
  let chk = Checker.create () in
  Checker.attach chk tr;
  let raised =
    try
      with_failure_dump "dump_smoke" tr (fun () ->
          Trace.emit tr ~ts:1. Trace.Suspend;
          Trace.emit tr ~ts:2. Trace.Resume;
          Trace.emit tr ~ts:3. Trace.Resume);
      false
    with Checker.Violation _ -> true
  in
  Checker.detach tr;
  Unix.putenv "DIPC_TRACE_DIR" "";
  Alcotest.(check bool) "violation re-raised" true raised;
  let path = Filename.concat dir "dump_smoke.trace.json" in
  Alcotest.(check bool) "trace artifact written" true (Sys.file_exists path);
  let ic = open_in path in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  (try Sys.rmdir dir with Sys_error _ -> ());
  let contains needle =
    let nl = String.length needle in
    let rec go i =
      i + nl <= n && (String.sub body i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "artifact is a Chrome trace" true
    (contains "traceEvents")

let suites =
  [
    ( "inject.clean",
      [
        Alcotest.test_case "all primitives pass the checker" `Quick
          test_clean_runs_pass_checker;
        Alcotest.test_case "checker preserves the golden digest" `Quick
          test_checker_preserves_golden_digest;
        Alcotest.test_case "zero-probability injector is clean" `Quick
          test_zero_probability_injector_is_clean;
      ] );
    ( "inject.seeded",
      [
        Alcotest.test_case "same seed, same digest" `Quick
          test_same_seed_same_digest;
        Alcotest.test_case "different seed, different digest" `Quick
          test_different_seed_different_digest;
        Alcotest.test_case "injection perturbs the timeline" `Quick
          test_injection_perturbs_timeline;
        Alcotest.test_case "full matrix passes the checker" `Slow
          test_aggressive_matrix_passes_checker;
        Alcotest.test_case "fault stats accounted" `Quick
          test_fault_stats_accounted;
        Alcotest.test_case "oltp injected, checker clean" `Slow
          test_oltp_injected_checker_clean;
        Alcotest.test_case "oltp Linux injected, pinned" `Slow
          test_oltp_linux_aggressive_pinned;
        Alcotest.test_case "violation dumps a trace artifact" `Quick
          test_failure_dump_writes_trace;
      ] );
    ( "inject.machine",
      [
        Alcotest.test_case "crossing faults preserve results" `Quick
          test_machine_injection_preserves_results;
        Alcotest.test_case "machine injection deterministic" `Quick
          test_machine_injection_deterministic;
      ] );
  ]
