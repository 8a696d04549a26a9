(* Determinism and tracing tests: same-seed runs must produce
   byte-identical replay digests across sim, kernel and hw layers;
   tracing must be purely observational (zero simulated-time drift); and
   a golden fixed-seed digest locks the cost attribution of the
   microbench path against accidental changes. *)

module Engine = Dipc_sim.Engine
module Breakdown = Dipc_sim.Breakdown
module Trace = Dipc_sim.Trace
module M = Dipc_workloads.Microbench
module O = Dipc_workloads.Oltp
module Apl = Dipc_hw.Apl
module Page_table = Dipc_hw.Page_table
module Memory = Dipc_hw.Memory
module Machine = Dipc_hw.Machine
module Isa = Dipc_hw.Isa
module Fault = Dipc_hw.Fault

let check_float = Alcotest.(check (float 1e-9))

let check_breakdowns_equal msg a b =
  List.iter
    (fun c ->
      check_float
        (Printf.sprintf "%s: %s" msg (Breakdown.category_name c))
        (Breakdown.get a c) (Breakdown.get b c))
    Breakdown.all_categories

(* --- trace core: ring buffer, digest, export --- *)

let test_ring_buffer_accounting () =
  let tr = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.emit tr ~ts:(float_of_int i) ~tid:i Trace.Sched
  done;
  Alcotest.(check int) "lifetime total" 20 (Trace.total tr);
  Alcotest.(check int) "ring keeps capacity" 8 (List.length (Trace.events tr));
  Alcotest.(check int) "dropped = total - retained" 12 (Trace.dropped tr);
  (* Oldest-first: the ring holds the last 8 emits, 13..20. *)
  let tids = List.map (fun e -> e.Trace.e_tid) (Trace.events tr) in
  Alcotest.(check (list int)) "oldest first" [ 13; 14; 15; 16; 17; 18; 19; 20 ] tids

let test_digest_covers_overwritten_events () =
  let small = Trace.create ~capacity:2 () in
  let big = Trace.create ~capacity:1024 () in
  for i = 1 to 50 do
    Trace.emit small ~ts:(float_of_int i) Trace.Sched;
    Trace.emit big ~ts:(float_of_int i) Trace.Sched
  done;
  Alcotest.(check string) "digest independent of ring capacity"
    (Trace.digest_hex big) (Trace.digest_hex small)

let test_null_sink_is_inert () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Trace.emit Trace.null ~ts:1. Trace.Spawn;
  Alcotest.(check int) "no events recorded" 0 (Trace.total Trace.null);
  Alcotest.(check int) "no events listed" 0 (List.length (Trace.events Trace.null))

(* Nothing reads a suite tracer's ring, so the suite must not keep one:
   its tracers count and digest every event and hold none. *)
let test_suite_tracer_digest_only () =
  let tr = Dipc_bench_suite.Suite.mk_tracer () in
  for i = 1 to 5 do
    Trace.emit tr ~ts:(float_of_int i) ~tid:i Trace.Sched
  done;
  Alcotest.(check bool) "enabled" true (Trace.enabled tr);
  Alcotest.(check int) "lifetime total" 5 (Trace.total tr);
  Alcotest.(check int) "no events listed" 0 (List.length (Trace.events tr));
  Alcotest.(check int) "dropped = total" 5 (Trace.dropped tr)

(* 0 is the smallest capacity; below it [create] raises. *)
let test_capacity_bounds () =
  ignore (Trace.create ~capacity:0 ());
  List.iter
    (fun capacity ->
      match Trace.create ~capacity () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument _ -> ())
    [ -1; min_int ]

let test_chrome_export_shape () =
  let tr = Trace.create () in
  Trace.emit tr ~ts:10. ~cpu:0 ~tid:1 ~cat:Breakdown.User_code ~dur:4. Trace.Charge;
  Trace.emit tr ~ts:14. ~cpu:1 ~tid:2 Trace.Ctxsw;
  let json = Trace.to_chrome_string tr in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "object wrapper" true
    (String.length json > 2 && json.[0] = '{');
  Alcotest.(check bool) "traceEvents key" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "complete slice for charges" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "instant for ctxsw" true (contains "\"ph\":\"i\"");
  Alcotest.(check bool) "category name as slice name" true (contains "\"user code\"");
  (* Timestamps are exported in microseconds. *)
  Alcotest.(check bool) "us timestamps" true (contains "\"ts\":0.010000")

(* --- kernel/sim layers: microbench determinism --- *)

let sem_run ?sink () =
  let tr = Trace.create () in
  Trace.set_sink tr sink;
  let r = M.run ~warmup:5 ~iters:20 ~trace:tr ~same_cpu:true M.Sem in
  (tr, r)

let test_microbench_same_seed_same_digest () =
  let tr1, r1 = sem_run () in
  let tr2, r2 = sem_run () in
  Alcotest.(check bool) "events were traced" true (Trace.total tr1 > 100);
  Alcotest.(check string) "identical replay digests" (Trace.digest_hex tr1)
    (Trace.digest_hex tr2);
  check_float "identical means" r1.M.mean_ns r2.M.mean_ns;
  check_breakdowns_equal "identical breakdowns" r1.M.total_breakdown
    r2.M.total_breakdown

let test_microbench_config_changes_digest () =
  let tr1, _ = sem_run () in
  let tr2 = Trace.create () in
  ignore (M.run ~warmup:5 ~iters:20 ~trace:tr2 ~same_cpu:false M.Sem);
  Alcotest.(check bool) "different schedule, different digest" false
    (Trace.digest_hex tr1 = Trace.digest_hex tr2)

let test_tracing_zero_drift () =
  (* Tracing must not perturb simulated time: traced and untraced runs
     produce bit-identical results. *)
  let _, traced = sem_run () in
  let plain = M.run ~warmup:5 ~iters:20 ~same_cpu:true M.Sem in
  check_float "mean unchanged by tracing" plain.M.mean_ns traced.M.mean_ns;
  check_breakdowns_equal "breakdown unchanged by tracing" plain.M.total_breakdown
    traced.M.total_breakdown

(* --- OLTP: seeded end-to-end determinism --- *)

let oltp_params =
  {
    (O.default_params ~db_mode:O.On_disk ~threads:4) with
    O.warmup = 50_000_000.;
    duration = 100_000_000.;
  }

let oltp_run ?(config = O.Linux) ~seed () =
  let tr = Trace.create () in
  let r =
    O.run
      ~params_override:(Some oltp_params)
      ~seed ~trace:tr ~config ~db_mode:O.On_disk ~threads:4 ()
  in
  (tr, r)

let test_oltp_same_seed_same_digest () =
  let tr1, r1 = oltp_run ~seed:7 () in
  let tr2, r2 = oltp_run ~seed:7 () in
  Alcotest.(check bool) "events were traced" true (Trace.total tr1 > 1000);
  Alcotest.(check string) "identical replay digests" (Trace.digest_hex tr1)
    (Trace.digest_hex tr2);
  Alcotest.(check int) "identical op counts" r1.O.r_ops r2.O.r_ops;
  check_float "identical throughput" r1.O.r_throughput_opm r2.O.r_throughput_opm

let test_oltp_different_seed_different_digest () =
  let tr1, _ = oltp_run ~seed:7 () in
  let tr2, _ = oltp_run ~seed:8 () in
  Alcotest.(check bool) "seeds diverge the event stream" false
    (Trace.digest_hex tr1 = Trace.digest_hex tr2)

(* The on-disk runs pinned: the only path through the disk's sleep
   queue and its pump's detached wakes, which no pinned suite cell
   takes.  Throughput and mean latency are exact. *)
let check_on_disk config ~digest ~ops ~opm ~mean_ns =
  let tr, r = oltp_run ~config ~seed:7 () in
  let name what = Printf.sprintf "on-disk %s %s" (O.config_name config) what in
  Alcotest.(check string) (name "digest") digest (Trace.digest_hex tr);
  Alcotest.(check int) (name "ops") ops r.O.r_ops;
  Alcotest.(check (float 0.)) (name "throughput") opm r.O.r_throughput_opm;
  Alcotest.(check (float 0.)) (name "mean latency") mean_ns r.O.r_latency_ns.s_mean

let test_oltp_on_disk_pinned () =
  check_on_disk O.Linux ~digest:"2b7b73ca0e2700f0" ~ops:41 ~opm:24600.
    ~mean_ns:10021894.182377396

let test_oltp_on_disk_dipc_ideal_pinned () =
  check_on_disk O.Dipc ~digest:"32aefa179ec0a455" ~ops:67 ~opm:40200.
    ~mean_ns:5760215.4242470833;
  check_on_disk O.Ideal ~digest:"6d79db05d1221e06" ~ops:68 ~opm:40800.
    ~mean_ns:5754962.3375196084

let test_oltp_default_seed_is_legacy () =
  (* The seed parameter defaults to the calibrated legacy streams, so
     published EXPERIMENTS.md numbers stay reproducible. *)
  let r1 =
    O.run
      ~params_override:(Some oltp_params)
      ~config:O.Linux ~db_mode:O.On_disk ~threads:4 ()
  in
  let r2 =
    O.run
      ~params_override:(Some oltp_params)
      ~seed:41 ~config:O.Linux ~db_mode:O.On_disk ~threads:4 ()
  in
  Alcotest.(check int) "default = seed 41" r1.O.r_ops r2.O.r_ops;
  check_float "same throughput" r1.O.r_throughput_opm r2.O.r_throughput_opm

(* --- hw layer: domain crossings and faults in the trace --- *)

let build_two_domain_machine () =
  let m = Machine.create () in
  let tag_a = Apl.fresh_tag m.Machine.apl and tag_b = Apl.fresh_tag m.Machine.apl in
  let code_a = 0x100000 and code_b = 0x200000 in
  Page_table.map m.Machine.page_table ~addr:code_a ~count:1 ~tag:tag_a
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:code_b ~count:1 ~tag:tag_b
    ~writable:false ~executable:true ();
  Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Dipc_hw.Perm.Read;
  ignore
    (Memory.place_code m.Machine.mem ~addr:code_a
       [ Isa.Const (0, 7); Isa.Jmp code_b ]);
  ignore
    (Memory.place_code m.Machine.mem ~addr:code_b [ Isa.Addi (0, 0, 1); Isa.Halt ]);
  (m, code_a, tag_b)

let machine_traced_run () =
  let m, code_a, tag_b = build_two_domain_machine () in
  let tr = Trace.create () in
  Machine.set_trace m tr;
  let ctx = Machine.new_ctx m ~pc:code_a ~sp_value:0 in
  Machine.run m ctx;
  (tr, ctx, tag_b)

let test_machine_domain_cross_traced () =
  let tr, ctx, tag_b = machine_traced_run () in
  Alcotest.(check int) "program ran" 8 ctx.Machine.regs.(0);
  let crossings =
    List.filter (fun e -> e.Trace.e_kind = Trace.Domain_cross) (Trace.events tr)
  in
  Alcotest.(check int) "one domain crossing" 1 (List.length crossings);
  let ev = List.hd crossings in
  Alcotest.(check int) "crossed into B" tag_b ev.Trace.e_tag;
  (* Every instruction left a Charge event (crossings may add APL-cache
     refill charges on top), and the charges account for every simulated
     nanosecond the context accumulated. *)
  let charges =
    List.filter (fun e -> e.Trace.e_kind = Trace.Charge) (Trace.events tr)
  in
  Alcotest.(check bool) "at least one charge per instruction" true
    (List.length charges >= ctx.Machine.instret);
  let charged = List.fold_left (fun a e -> a +. e.Trace.e_dur) 0. charges in
  check_float "charges add up to the context's cost" ctx.Machine.cost charged

let test_machine_digest_reproducible () =
  let tr1, _, _ = machine_traced_run () in
  let tr2, _, _ = machine_traced_run () in
  Alcotest.(check string) "identical machine digests" (Trace.digest_hex tr1)
    (Trace.digest_hex tr2)

let test_machine_fault_traced () =
  let m = Machine.create () in
  let tag_a = Apl.fresh_tag m.Machine.apl in
  let code_a = 0x100000 in
  Page_table.map m.Machine.page_table ~addr:code_a ~count:1 ~tag:tag_a
    ~writable:false ~executable:true ();
  ignore
    (Memory.place_code m.Machine.mem ~addr:code_a
       [ Isa.Const (1, 0xdead000); Isa.Load (0, 1, 0); Isa.Halt ]);
  let tr = Trace.create () in
  Machine.set_trace m tr;
  let ctx = Machine.new_ctx m ~pc:code_a ~sp_value:0 in
  (match Machine.run m ctx with
  | () -> Alcotest.fail "expected a fault"
  | exception Fault.Fault _ -> ());
  let faults =
    List.filter (fun e -> e.Trace.e_kind = Trace.Fault) (Trace.events tr)
  in
  Alcotest.(check int) "fault event recorded" 1 (List.length faults)

(* --- golden trace: locks cost attribution of the microbench path --- *)

(* Every trace kind in [Trace.kind_index] order: the index each kind
   folds into the digest. *)
let all_kinds =
  [
    Trace.Sched; Trace.Spawn; Trace.Resume; Trace.Suspend; Trace.Ctxsw; Trace.Ipi;
    Trace.Syscall; Trace.Domain_cross; Trace.Fault; Trace.Charge; Trace.Dcs_push;
    Trace.Dcs_pop; Trace.Dcs_adjust; Trace.Xtag_access; Trace.Priv_op;
    Trace.Cap_revoke; Trace.Cap_use;
  ]

let kind_index kind =
  let rec go i = function
    | [] -> assert false
    | k :: rest -> if k = kind then i else go (i + 1) rest
  in
  go 0 all_kinds

(* An event's eight fields as the 64-bit words every digest version
   folds, in the order ts, kind, cpu, tid, tag, cat, dur, arg. *)
let event_words e =
  let ci = match e.Trace.e_cat with None -> -1 | Some c -> Breakdown.category_index c in
  [
    Int64.bits_of_float e.Trace.e_ts;
    Int64.of_int (kind_index e.e_kind);
    Int64.of_int e.e_cpu;
    Int64.of_int e.e_tid;
    Int64.of_int e.e_tag;
    Int64.of_int ci;
    Int64.bits_of_float e.e_dur;
    Int64.of_int e.e_arg;
  ]

(* Splitmix64's finaliser, which v2 and v3 apply to the fold state. *)
let splitmix_finaliser z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The earlier replay digests, folded over the stream a sink observes.
   The golden run pinned 60d65ec18e0e97d7 under v1 and edfc59d47033e564
   under v2; both still hold over today's stream, which shows that each
   change of digest function left the stream itself bit for bit
   unchanged.

   v1: byte-at-a-time FNV-1a (64-bit) over the eight words. *)
let v1_golden_digest = "60d65ec18e0e97d7"

let v1_word h v =
  let h = ref h in
  for i = 0 to 7 do
    let byte = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001B3L
  done;
  !h

let v1_event h e = List.fold_left v1_word h (event_words e)

(* v2: one rotate/xor/multiply step per word, h <- (rotl h 23 lxor w) *
   K from 0x243F6A8885A308D3, splitmix64's finaliser at the end. *)
let v2_golden_digest = "edfc59d47033e564"

let v2_seed = 0x243F6A8885A308D3L

let v2_word h w =
  let rotl = Int64.logor (Int64.shift_left h 23) (Int64.shift_right_logical h 41) in
  Int64.mul (Int64.logxor rotl w) 0x9E3779B97F4A7C15L

let v2_event h e = List.fold_left v2_word h (event_words e)

(* Fixed configuration: Sem, same CPU, warmup 5, 20 measured iterations.
   If this test fails, a code change altered the simulated event timeline
   or cost attribution.  The suite's `golden_sem_same` cell runs this
   configuration: if the change is intentional, rerun it
   (`dipc_cli suite --json FILE` reports its digest as golden_digest)
   and update the constants together with EXPERIMENTS.md. *)
let golden_digest = "e9c29266f1b18af0"

let golden_events = 1511

let golden_mean_ns = 1366.5731984237136

let golden_breakdown =
  [
    (Breakdown.User_code, 31.659999999999968);
    (Breakdown.Syscall_entry, 110.60000000000001);
    (Breakdown.Dispatch, 47.400000000000006);
    (Breakdown.Kernel, 596.9131984237132);
    (Breakdown.Schedule, 400.);
    (Breakdown.Page_table, 180.);
    (Breakdown.Idle, 0.);
    (Breakdown.Proxy, 0.);
    (Breakdown.Stub, 0.);
  ]

let test_golden_microbench_trace () =
  let v1 = ref 0xCBF29CE484222325L and v2 = ref v2_seed in
  let tr, r =
    sem_run
      ~sink:(fun e ->
        v1 := v1_event !v1 e;
        v2 := v2_event !v2 e)
      ()
  in
  Alcotest.(check string) "golden replay digest" golden_digest (Trace.digest_hex tr);
  Alcotest.(check string) "v1 digest of the same stream" v1_golden_digest
    (Printf.sprintf "%016Lx" !v1);
  Alcotest.(check string) "v2 digest of the same stream" v2_golden_digest
    (Printf.sprintf "%016Lx" (splitmix_finaliser !v2));
  Alcotest.(check int) "golden event count" golden_events (Trace.total tr);
  check_float "golden mean" golden_mean_ns r.M.mean_ns;
  List.iter
    (fun (c, expected) ->
      check_float
        (Printf.sprintf "golden %s" (Breakdown.category_name c))
        expected
        (Breakdown.get r.M.total_breakdown c))
    golden_breakdown

let suites =
  [
    ( "trace.core",
      [
        Alcotest.test_case "ring buffer accounting" `Quick
          test_ring_buffer_accounting;
        Alcotest.test_case "digest covers overwritten" `Quick
          test_digest_covers_overwritten_events;
        Alcotest.test_case "null sink inert" `Quick test_null_sink_is_inert;
        Alcotest.test_case "suite tracers are digest-only" `Quick
          test_suite_tracer_digest_only;
        Alcotest.test_case "capacity 0 accepted, negative rejected" `Quick
          test_capacity_bounds;
        Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
      ] );
    ( "trace.determinism",
      [
        Alcotest.test_case "microbench same seed, same digest" `Quick
          test_microbench_same_seed_same_digest;
        Alcotest.test_case "microbench config changes digest" `Quick
          test_microbench_config_changes_digest;
        Alcotest.test_case "tracing adds zero drift" `Quick test_tracing_zero_drift;
        Alcotest.test_case "oltp same seed, same digest" `Slow
          test_oltp_same_seed_same_digest;
        Alcotest.test_case "oltp different seed, different digest" `Slow
          test_oltp_different_seed_different_digest;
        Alcotest.test_case "oltp default seed is legacy" `Slow
          test_oltp_default_seed_is_legacy;
        Alcotest.test_case "oltp on-disk Linux pinned" `Slow test_oltp_on_disk_pinned;
        Alcotest.test_case "oltp on-disk dIPC and Ideal pinned" `Slow
          test_oltp_on_disk_dipc_ideal_pinned;
      ] );
    ( "trace.hw",
      [
        Alcotest.test_case "domain crossing traced" `Quick
          test_machine_domain_cross_traced;
        Alcotest.test_case "machine digest reproducible" `Quick
          test_machine_digest_reproducible;
        Alcotest.test_case "fault traced" `Quick test_machine_fault_traced;
      ] );
    ( "trace.golden",
      [ Alcotest.test_case "golden microbench trace" `Quick test_golden_microbench_trace ] );
  ]
