(* The benchmark's five workloads.  Each reaches the simulator only
   through its public entry points and times those calls with a
   monotonic clock; see README.md for why each workload exists and which
   layers it loads. *)

module Engine = Dipc_sim.Engine
module Trace = Dipc_sim.Trace
module Breakdown = Dipc_sim.Breakdown
module Rng = Dipc_sim.Rng
module Machine = Dipc_hw.Machine
module Scenario = Dipc_core.Scenario
module Call = Dipc_core.Call
module System = Dipc_core.System
module Types = Dipc_core.Types
module O = Dipc_workloads.Oltp
module OL = Dipc_workloads.Openload
module Suite = Dipc_bench_suite.Suite
module Golden = Dipc_bench_suite.Golden

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- correctness checks ------------------------------------------------ *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : (string * string) list;  (** first few, newest first *)
}

let new_checks () = { attempted = 0; failed = 0; failures = [] }

let max_recorded_failures = 20

let check c name ok detail =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if c.failed <= max_recorded_failures then
      c.failures <- (name, Lazy.force detail) :: c.failures
  end

(* --- one rep ------------------------------------------------------------ *)

(* [Untraced] is what end-to-end metrics measure.  [Traced] adds the
   benchmark's per-layer instrumentation (a workload's own trace ring,
   clock reads around layer calls).  [Counting] additionally installs
   counting sinks; it runs once per traced run, for its exact counts. *)
type mode = Untraced | Traced | Counting

type rep = {
  setup_s : float;  (** host time before the first simulated event *)
  run_s : float;  (** host time after set-up *)
  slices : float list;
      (** host times of the same consecutive parts of [run_s] in every
          rep, in order: a suite cell, a stretch of simulated time, a
          block of calls *)
  sim_s : float;  (** simulated seconds the rep covered *)
  events : int;  (** simulated events: engine events, instructions or requests *)
  work : float;  (** units of the workload's own rate metric, if any *)
  counts : (string * float) list;  (** per-layer counts, exact per seed *)
  layer : (string * string * float) list;
      (** layer host metrics of traced modes: name, unit, value *)
}

type instance = {
  setup : unit -> float;
      (** host time of the rep's set-up alone, repeated for [setup_s] *)
  rep : mode -> rep;
  finish : unit -> (string * string * float) list;
      (** end-of-run checks; returns layer host metrics they measured *)
}

type env = {
  seed : int;
  baseline : string;  (** text of the pinned suite report *)
  scratch : string;  (** a private directory for temporary files *)
  checks : checks;
}

type t = {
  name : string;
  default_seed : int;
  rate : string option;  (** name of [work] per host second *)
  start : env -> instance;
}

let baseline_row env name =
  Json.to_list (Json.member "experiments" (Json.of_string env.baseline))
  |> List.find (fun r -> Json.to_str (Json.member "name" r) = name)

(* --- suite_pinned -------------------------------------------------------- *)

let sum_rows rows f = List.fold_left (fun a r -> a +. f r) 0. rows

let row_name r = Json.to_str (Json.member "name" r)

let row_float k r = Json.to_float (Json.member k r)

(* Suite cells by family, in the order bench/suite.ml lists them. *)
let family name =
  List.find_opt (fun p -> String.starts_with ~prefix:(p ^ "_") name)
    [ "oltp"; "machine"; "engine"; "sec"; "open" ]
  |> Option.value ~default:"micro"

(* The cost calibration a fresh `bench --json` or `dipc_cli open` process
   runs first; returns the open-arrival service demands.  Its memos make
   it a once-per-process cost: clear them so every rep pays it. *)
let calibrate () =
  Suite.dipc_costs_memo := None;
  Suite.open_costs_memo := None;
  ignore (Suite.dipc_costs ());
  Suite.open_costs ()

let time_calibrate () =
  let t0 = now () in
  ignore (calibrate ());
  now () -. t0

let suite_pinned =
  let start env =
    let out = Filename.concat env.scratch "suite.json" in
    let rep _mode =
      let setup_s = time_calibrate () in
      (* bench_json appends a history row next to its report: keep both
         in the scratch directory. *)
      Suite.bench_json out;
      let text = Golden.read_file out in
      Sys.remove out;
      let history = Filename.concat env.scratch "BENCH_latest.jsonl" in
      if Sys.file_exists history then Sys.remove history;
      let c = env.checks in
      let golden = Golden.scalar_string text "golden_digest" in
      check c "golden digest"
        (golden = Golden.scalar_string env.baseline "golden_digest")
        (lazy (Printf.sprintf "got %s" (Option.value golden ~default:"<none>")));
      let mismatches = Golden.compare_digests ~baseline:env.baseline ~candidate:text in
      List.iter
        (fun (name, _) ->
          let mm = List.filter (fun m -> m.Golden.mm_name = name) mismatches in
          check c ("digest of " ^ name) (mm = [])
            (lazy
              (match mm with
              | m :: _ ->
                  Printf.sprintf "expected %s, got %s" m.Golden.mm_expected
                    m.Golden.mm_actual
              | [] -> "")))
        (Golden.parse_report env.baseline);
      let cmm = Golden.compare_counters ~baseline:env.baseline ~candidate:text in
      check c "counters" (cmm = [])
        (lazy
          (String.concat "; "
             (List.map
                (fun m ->
                  Printf.sprintf "%s expected %s, got %s" m.Golden.mm_name
                    m.Golden.mm_expected m.Golden.mm_actual)
                cmm)));
      let doc = Json.of_string text in
      let rows = Json.to_list (Json.member "experiments" doc) in
      let total_wall = Json.to_float (Json.member "total_wall_s" doc) in
      let in_family f r = family (row_name r) = f in
      let family_s f =
        sum_rows rows (fun r -> if in_family f r then row_float "wall_s" r else 0.)
      in
      let counter k =
        sum_rows rows (fun r ->
            match List.assoc_opt k (Json.to_obj (Json.member "counters" r)) with
            | Some v -> Json.to_float v
            | None -> 0.)
      in
      {
        setup_s;
        run_s = total_wall;
        slices = List.map (row_float "wall_s") rows;
        sim_s = sum_rows rows (row_float "sim_ns") *. 1e-9;
        events = int_of_float (Json.to_float (Json.member "total_events" doc));
        work = 0.;
        counts =
          [
            (* the traced cells, whose [events] is a trace event total *)
            ( "trace.events",
              sum_rows rows (fun r ->
                  match family (row_name r) with
                  | "oltp" | "micro" -> row_float "events" r
                  | _ -> 0.) );
            ( "open.requests",
              sum_rows rows (fun r ->
                  if in_family "open" r then row_float "events" r else 0.) );
          ]
          @ List.map
              (fun k -> ("machine." ^ k, counter k))
              [
                "instret"; "blocks"; "sb_hits"; "sb_xlate"; "side_exits";
                "ras_hits"; "ras_misses"; "ic_hits"; "ic_misses";
              ];
        layer =
          List.map
            (fun f -> ("suite." ^ f ^ "_s", "s", family_s f))
            [ "oltp"; "machine"; "micro"; "sec"; "open"; "engine" ];
      }
    in
    { setup = time_calibrate; rep; finish = (fun () -> []) }
  in
  { name = "suite_pinned"; default_seed = 0; rate = None; start }

(* --- oltp_linux / oltp_dipc ------------------------------------------------ *)

let oltp_threads = 96

(* Timed stretches per [drive_until] call (warm-up, measurement): a few
   ms of host time each. *)
let drive_slices = 32

let category_names =
  [ "user"; "syscall"; "dispatch"; "kernel"; "sched"; "page_table"; "idle";
    "proxy"; "stub" ]

let counted_kinds =
  [
    (Trace.Sched, "engine.sched");
    (Trace.Spawn, "engine.spawn");
    (Trace.Suspend, "engine.suspend");
    (Trace.Resume, "engine.resume");
    (Trace.Ctxsw, "kernel.ctxsw");
    (Trace.Ipi, "kernel.ipi");
    (Trace.Syscall, "kernel.syscall");
    (Trace.Charge, "kernel.charge");
  ]

(* A sink counting events by kind and simulated ns by charge category;
   returns the reader of those counts. *)
let counting_sink tr =
  let kinds = Array.make (List.length counted_kinds) 0 in
  let sim_ns = Array.make (List.length category_names) 0. in
  let index = function
    | Trace.Sched -> 0
    | Spawn -> 1
    | Suspend -> 2
    | Resume -> 3
    | Ctxsw -> 4
    | Ipi -> 5
    | Syscall -> 6
    | Charge -> 7
    | _ -> -1
  in
  Trace.set_sink tr
    (Some
       (fun ev ->
         let i = index ev.Trace.e_kind in
         if i >= 0 then kinds.(i) <- kinds.(i) + 1;
         match ev.Trace.e_cat with
         | Some cat when ev.Trace.e_kind = Trace.Charge ->
             let j = Breakdown.category_index cat in
             sim_ns.(j) <- sim_ns.(j) +. ev.Trace.e_dur
         | _ -> ()));
  fun () ->
    (("trace.events", float_of_int (Trace.total tr))
    :: List.mapi (fun i (_, name) -> (name, float_of_int kinds.(i))) counted_kinds)
    @ List.mapi (fun j c -> ("sim_ns." ^ c, sim_ns.(j))) category_names

let oltp name config ~cell =
  let start env =
    let p = O.default_params ~db_mode:O.In_memory ~threads:oltp_threads in
    let sim_s = (p.O.warmup +. p.O.duration) *. 1e-9 in
    (* Seed 41 is the pinned suite cell: its op count and trace digest are
       in the baseline report.  At other seeds the reps must agree. *)
    let pinned =
      if env.seed <> 41 then None
      else
        let row = baseline_row env cell in
        let opm = Json.to_float (Json.member "metric" row) in
        Some
          ( Json.to_str (Json.member "digest" row),
            Float.to_int (Float.round (opm *. p.O.duration /. 60e9)) )
    in
    let first_ops = ref None and digests = ref [] in
    let run ?trace drive_until =
      O.run ~seed:env.seed ?trace ~drive_until ~config ~db_mode:O.In_memory
        ~threads:oltp_threads ()
    in
    (* [Oltp.run] up to its first [drive_until] call, then abandoned *)
    let setup () =
      let t0 = now () and t1 = ref 0. in
      (try ignore (run (fun _ _ -> t1 := now (); raise Exit)) with Exit -> ());
      !t1 -. t0
    in
    let check_ops (r : O.result) =
      let got = (r.O.r_ops, r.O.r_latency_ns.Dipc_sim.Stats.s_mean) in
      match (pinned, !first_ops) with
      | Some (_, ops), _ ->
          check env.checks "ops per rep" (r.O.r_ops = ops)
            (lazy (Printf.sprintf "expected %d ops, got %d" ops r.O.r_ops))
      | None, None -> first_ops := Some got
      | None, Some (ops, mean) ->
          check env.checks "reps agree" (got = (ops, mean))
            (lazy
              (Printf.sprintf "%d ops, mean latency %.1f ns; first rep %d, %.1f ns"
                 (fst got) (snd got) ops mean))
    in
    let rep mode =
      (* traced reps use the 4Ki ring the suite traces this cell with *)
      let trace =
        match mode with
        | Untraced -> None
        | Traced | Counting -> Some (Suite.mk_tracer ())
      in
      let read_counts =
        match trace with
        | Some tr when mode = Counting -> Some (counting_sink tr)
        | _ -> None
      in
      let t0 = now () in
      let first = ref 0. and drive = ref 0. and steps = ref 0 and slices = ref [] in
      (* runs each phase (warm-up, measurement) in [drive_slices] equal
         stretches of simulated time, each timed: [Engine.run_until] in
         steps runs the same events as in one call *)
      let drive_until e until =
        let t = now () in
        if !first = 0. then first := t;
        let from = Engine.now e in
        for i = 1 to drive_slices do
          let ts = now () in
          Engine.run_until e
            (if i = drive_slices then until
             else from +. ((until -. from) *. float_of_int i /. float_of_int drive_slices));
          slices := (now () -. ts) :: !slices
        done;
        drive := !drive +. (now () -. t);
        steps := Engine.steps e
      in
      let r = run ?trace drive_until in
      let t1 = now () in
      check_ops r;
      Option.iter (fun tr -> digests := Trace.digest_hex tr :: !digests) trace;
      {
        setup_s = !first -. t0;
        run_s = t1 -. !first;
        slices = List.rev !slices;
        sim_s;
        events = !steps;
        work = 0.;
        counts = (match read_counts with Some read -> read () | None -> []);
        layer = (if mode = Untraced then [] else [ ("engine.drive_s", "s", !drive) ]);
      }
    in
    let finish () =
      let need = if pinned = None then 2 else 1 in
      while List.length !digests < need do
        let tr = Suite.mk_tracer () in
        check_ops (run ~trace:tr Engine.run_until);
        digests := Trace.digest_hex tr :: !digests
      done;
      let want =
        match pinned with Some (d, _) -> d | None -> List.hd !digests
      in
      List.iter
        (fun d ->
          check env.checks ("trace digest vs " ^ cell) (d = want)
            (lazy (Printf.sprintf "expected %s, got %s" want d)))
        !digests;
      []
    in
    { setup; rep; finish }
  in
  { name; default_seed = 41; rate = None; start }

(* --- dipc_calls ------------------------------------------------------------ *)

type policy = {
  pol : string;
  same_process : bool;
  tls : bool;
  high : bool;
  fig5_ns : string;  (** warm per-call cost as fig5 prints it *)
  instrs : int;  (** instructions retired per warm call *)
}

(* The six dIPC rows of Figure 5, in the order [Suite.dipc_costs]
   measures them. *)
let policies =
  [
    { pol = "low"; same_process = true; tls = false; high = false; fig5_ns = "13.6"; instrs = 25 };
    { pol = "high"; same_process = true; tls = false; high = true; fig5_ns = "63.2"; instrs = 141 };
    { pol = "low+proc"; same_process = false; tls = false; high = false; fig5_ns = "74.4"; instrs = 79 };
    { pol = "high+proc"; same_process = false; tls = false; high = true; fig5_ns = "105.5"; instrs = 152 };
    { pol = "low+proc+tls"; same_process = false; tls = true; high = false; fig5_ns = "34.6"; instrs = 73 };
    { pol = "high+proc+tls"; same_process = false; tls = true; high = true; fig5_ns = "65.7"; instrs = 146 };
  ]

(* Short reps: a slice's fastest time is taken over a run's reps, and
   ~100 reps of ~0.15 s give each slice more chances at a quiet moment
   than ~12 reps of ~1.5 s. *)
let calls_per_policy = 5_000

(* Calls per timed slice: ~5 ms of host time. *)
let calls_per_slice = 1_000

(* As in [Scenario.measure]: the first calls fill the tracking and APL
   caches, so per-call costs are checked on the warm calls after them. *)
let cold_calls = 3

let dipc_calls =
  let start env =
    let rng = Rng.create ~seed:env.seed in
    let args = Array.init 64 (fun _ -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000)) in
    let make () =
      List.map
        (fun p ->
          let props = if p.high then Types.props_high else Types.props_low in
          ( p,
            Scenario.make ~same_process:p.same_process ~tls_optimized:p.tls
              ~caller_props:props ~callee_props:props () ))
        policies
    in
    let setup () =
      let t0 = now () in
      ignore (Sys.opaque_identity (make ()));
      now () -. t0
    in
    let rep mode =
      let timed = mode <> Untraced in
      let t0 = now () in
      let scenarios = make () in
      let t1 = now () in
      let setup_t = ref 0. and run_t = ref 0. in
      let sim_ns = ref 0. and instret = ref 0 and slices = ref [] in
      let clock () = if timed then now () else 0. in
      List.iter
        (fun (p, (sc : Scenario.t)) ->
          let ctx = sc.Scenario.thread.System.t_ctx in
          let bad = ref 0 in
          let cost0 = ctx.Machine.cost and instr0 = ctx.Machine.instret in
          let warm_cost = ref 0. and warm_instr = ref 0 in
          let slice_t0 = ref (now ()) in
          for i = 0 to calls_per_policy - 1 do
            if i = cold_calls then begin
              warm_cost := ctx.Machine.cost;
              warm_instr := ctx.Machine.instret
            end;
            let a, b = args.(i land 63) in
            let ta = clock () in
            Call.setup sc.Scenario.sys sc.Scenario.thread ~fn:sc.Scenario.stub
              ~args:[ a; b ];
            let tb = clock () in
            let result = Call.run sc.Scenario.sys sc.Scenario.thread () in
            let tc = clock () in
            if timed then begin
              setup_t := !setup_t +. (tb -. ta);
              run_t := !run_t +. (tc -. tb)
            end;
            (match result with
            | Ok v when v = a + b -> ()
            | Ok v ->
                incr bad;
                check env.checks (p.pol ^ " call returns a+b") false
                  (lazy (Printf.sprintf "%d + %d returned %d" a b v))
            | Error f ->
                incr bad;
                check env.checks (p.pol ^ " call returns a+b") false
                  (lazy (Dipc_hw.Fault.to_string f)));
            if (i + 1) mod calls_per_slice = 0 then begin
              let t = now () in
              slices := (t -. !slice_t0) :: !slices;
              slice_t0 := t
            end
          done;
          (* one check per call: the failures above were already counted *)
          env.checks.attempted <- env.checks.attempted + calls_per_policy - !bad;
          let warm = float_of_int (calls_per_policy - cold_calls) in
          let ns = Printf.sprintf "%.1f" ((ctx.Machine.cost -. !warm_cost) /. warm) in
          check env.checks (p.pol ^ " sim ns per call") (ns = p.fig5_ns)
            (lazy (Printf.sprintf "fig5 prints %s ns, got %s" p.fig5_ns ns));
          let instrs = ctx.Machine.instret - !warm_instr in
          check env.checks (p.pol ^ " instructions per call")
            (instrs = p.instrs * (calls_per_policy - cold_calls))
            (lazy
              (Printf.sprintf "expected %d, got %.2f" p.instrs
                 (float_of_int instrs /. warm)));
          sim_ns := !sim_ns +. (ctx.Machine.cost -. cost0);
          instret := !instret + (ctx.Machine.instret - instr0))
        scenarios;
      let t2 = now () in
      let calls = float_of_int (calls_per_policy * List.length policies) in
      let machines = List.map (fun (_, sc) -> sc.Scenario.sys.System.machine) scenarios in
      let ctr f = float_of_int (List.fold_left (fun a m -> a + f m) 0 machines) in
      let sys_sum f =
        float_of_int
          (List.fold_left (fun a (_, sc) -> a + f sc.Scenario.sys) 0 scenarios)
      in
      let side_exits = ctr (fun m -> m.Machine.ctr_side_exits) in
      {
        setup_s = t1 -. t0;
        run_s = t2 -. t1;
        slices = List.rev !slices;
        sim_s = !sim_ns *. 1e-9;
        events = !instret;
        work = calls;
        counts =
          [
            ("machine.instret", float_of_int !instret);
            ("machine.blocks", ctr (fun m -> m.Machine.ctr_block_entries));
            ("machine.sb_hits", ctr (fun m -> m.Machine.ctr_sb_hits));
            ("machine.sb_xlate", ctr (fun m -> m.Machine.ctr_sb_translations));
            ("machine.side_exits", side_exits);
            ("machine.ras_hits", ctr (fun m -> m.Machine.ctr_ras_hits));
            ("machine.ras_misses", ctr (fun m -> m.Machine.ctr_ras_misses));
            ("machine.ic_hits", ctr (fun m -> m.Machine.ctr_ic_hits));
            ("machine.ic_misses", ctr (fun m -> m.Machine.ctr_ic_misses));
            ("machine.side_exits_per_call", side_exits /. calls);
            ("core.resolve_cold", sys_sum (fun s -> s.System.resolve_cold));
            ("core.resolve_warm", sys_sum (fun s -> s.System.resolve_warm));
          ];
        layer =
          (if timed then
             [
               ("core.call_setup_s", "s", !setup_t);
               ("machine.run_s", "s", !run_t);
               ("machine.sim_mips", "MIPS", float_of_int !instret /. !run_t /. 1e6);
             ]
           else []);
      }
    in
    { setup; rep; finish = (fun () -> []) }
  in
  { name = "dipc_calls"; default_seed = 1; rate = Some "calls_per_s"; start }

(* --- open_million ------------------------------------------------------------ *)

(* The CI million-session cell: `dipc_cli open --primitive sem --arrival
   poisson --sessions 1050000 --load 0.95`. *)
let open_sessions = 1_050_000

let open_million =
  let start env =
    let params service_ns =
      OL.default_params ~seed:env.seed ~sessions:open_sessions ~offered_load:0.95
        ~arrival:OL.Poisson ~service_ns ()
    in
    let first = ref None and sharded = ref [] in
    let rep _mode =
      let t0 = now () in
      let service_ns = List.assoc "sem" (calibrate ()) in
      let t1 = now () in
      let r = OL.run_sharded ~shards:2 (params service_ns) in
      let t2 = now () in
      sharded := (t2 -. t1) :: !sharded;
      let got = (service_ns, r.OL.r_digest) in
      (match !first with
      | None -> first := Some got
      | Some want ->
          check env.checks "reps agree" (got = want)
            (lazy
              (Printf.sprintf "service %.1f ns digest %s, first rep %.1f ns %s"
                 service_ns r.OL.r_digest (fst want) (snd want))));
      {
        setup_s = t1 -. t0;
        run_s = t2 -. t1;
        slices = [ t2 -. t1 ];
        sim_s = r.OL.r_makespan_ns *. 1e-9;
        events = r.OL.r_requests;
        work = float_of_int r.OL.r_requests;
        counts = [ ("open.requests", float_of_int r.OL.r_requests) ];
        layer = [];
      }
    in
    let finish () =
      match !first with
      | None -> []
      | Some (service_ns, digest) ->
          let t0 = now () in
          let serial = OL.run_sharded ~shards:1 (params service_ns) in
          let serial_s = now () -. t0 in
          check env.checks "2-shard digest equals serial" (serial.OL.r_digest = digest)
            (lazy (Printf.sprintf "serial %s, sharded %s" serial.OL.r_digest digest));
          [
            ("shard.serial_s", "s", serial_s);
            ("shard.speedup", "x", serial_s /. Stats.median !sharded);
          ]
    in
    { setup = time_calibrate; rep; finish }
  in
  { name = "open_million"; default_seed = 42; rate = Some "requests_per_s"; start }

let all =
  [
    suite_pinned;
    oltp "oltp_linux" O.Linux ~cell:"oltp_linux_mem96";
    oltp "oltp_dipc" O.Dipc ~cell:"oltp_dipc_mem96";
    dipc_calls;
    open_million;
  ]
