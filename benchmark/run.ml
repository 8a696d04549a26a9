(* Benchmark runner: see README.md.

     run.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     run.exe compare DIR_A DIR_B

   Each workload runs in a child process of its own (this executable
   re-invoked with --child), started with the suite's GC settings.  The
   child measures, checks, and writes one JSON result; the parent prints
   it.  With one workload, the last line of stdout is the summary object
   {"correct", "attempted", "failed", "metrics"}. *)

module W = Dipc_benchmark.Workloads
module Json = Dipc_benchmark.Json
module Stats = Dipc_benchmark.Stats
module Suite = Dipc_bench_suite.Suite

(* The metrics BENCHMARK.json declares, with their units (the runtest
   smoke holds the two equal).  End-to-end metrics come from untraced
   runs (--trace 0), per-layer metrics from traced runs (--trace 1). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("sim_s_per_host_s", "sim_s/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("host.setup_s", "s");
    ("host.run_s", "s");
    ("trace.overhead_s", "s");
    ("sim.events", "count");
  ]
  @ List.map (fun (_, name) -> (name, "count")) W.counted_kinds
  @ List.map (fun c -> ("sim_ns." ^ c, "sim_ns")) W.category_names
  @ [
      ("trace.events", "count");
      ("machine.instret", "count");
      ("machine.blocks", "count");
      ("machine.sb_hits", "count");
      ("machine.sb_xlate", "count");
      ("machine.side_exits", "count");
      ("machine.ras_hits", "count");
      ("machine.ras_misses", "count");
      ("machine.ic_hits", "count");
      ("machine.ic_misses", "count");
      ("machine.side_exits_per_call", "1/call");
      ("core.resolve_cold", "count");
      ("core.resolve_warm", "count");
      ("open.requests", "count");
      ("gc.minor_words", "words");
      ("gc.minor_words_per_event", "words/event");
      ("gc.promoted_words", "words");
      ("gc.major_collections", "count");
    ]

(* The same nursery [Suite.bench_json] sets, for every domain: [Gc.set]
   only reaches the calling domain, while OCAMLRUNPARAM sizes each
   domain's minor heap at spawn. *)
let gc_params = "OCAMLRUNPARAM=s=8M"

let sample unit xs =
  let q1, m, q3 = Stats.quartiles xs in
  Json.Obj
    [
      ("value", Json.Num m);
      ("unit", Json.Str unit);
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("n", Json.Num (float_of_int (List.length xs)));
    ]

let single unit v = Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]

(* --- host speed --------------------------------------------------------- *)

(* Host time on a shared VM moves with the load of other tenants.  It
   comes and goes within milliseconds, so an end-to-end time is the
   run's best rep, each of its slices ([W.rep]) at its fastest in the
   run: interference only ever adds time.  When no moment of a run is
   quiet (whole 20 s runs were slowed up to 2.2x), the best rep is slow
   too, so it is scaled by the host's speed at the run's quietest
   moments: a probe is timed after every rep, and the scale is its time
   on the reference host over its fastest time in the run.  Host times
   then read as seconds on the reference host (a 2-core x86-64 VM, OCaml
   5.1.1) when quiet.

   The probe is a closure-threaded interpreter: indirect calls through
   closures over small mutable state, the way the simulator's engine
   and machine run.  Of the probes tried (an integer loop, a 32 MB write
   sweep, random lookups in an 8 MB hash table), it kept the workloads'
   spreads lowest.  It allocates nothing in its loop, so the program's
   heap cannot slow it. *)
let reference_probe_s = 0.00135

type probe_vm = { mutable acc : int; regs : int array }

let probe_ops : (probe_vm -> unit) array =
  [|
    (fun v -> v.acc <- v.acc + v.regs.(0));
    (fun v -> v.regs.(1) <- v.acc lxor 0x55);
    (fun v -> v.acc <- v.acc * 3);
    (fun v -> v.regs.(2) <- v.regs.(1) + v.acc);
    (fun v -> if v.acc land 1 = 0 then v.acc <- v.acc lsr 1);
    (fun v -> v.regs.(3) <- v.regs.(3) + 1);
    (fun v -> v.acc <- v.acc - v.regs.(2));
    (fun v -> v.regs.(0) <- v.acc land 0xffff);
    (fun v -> v.acc <- v.acc lor 7);
    (fun v -> v.regs.(4) <- v.regs.(4) lxor v.acc);
    (fun v -> v.acc <- v.acc + 12345);
    (fun v -> v.regs.(5) <- v.acc asr 3);
    (fun v -> v.acc <- v.regs.(5) + v.regs.(4));
    (fun v -> v.regs.(6) <- v.regs.(6) + v.regs.(0));
    (fun v -> v.acc <- v.acc lxor v.regs.(6));
    (fun v -> v.regs.(7) <- v.acc);
  |]

(* 128 ops drawn from the 16 above, run 4,000 times: ~1.4 ms *)
let probe_program =
  let st = Random.State.make [| 3 |] in
  Array.init 128 (fun _ -> probe_ops.(Random.State.int st (Array.length probe_ops)))

let probe () =
  let v = { acc = 1; regs = Array.make 8 0 } in
  let t0 = W.now () in
  for _ = 1 to 4000 do
    for i = 0 to Array.length probe_program - 1 do
      probe_program.(i) v
    done
  done;
  ignore (Sys.opaque_identity v.acc);
  W.now () -. t0

let minimum = List.fold_left Float.min infinity

(* [f ()] again and again for 3% of a rep's [rep_s] seconds, at least
   once. *)
let for_3pct_of rep_s f =
  let t0 = W.now () in
  let rec go acc =
    let acc = f () :: acc in
    if W.now () -. t0 >= 0.03 *. rep_s then acc else go acc
  in
  go []

(* A measured [value] with the raw samples it was taken from. *)
let measured_value unit value xs =
  let q1, m, q3 = Stats.quartiles xs in
  Json.Obj
    [
      ("value", Json.Num value);
      ("unit", Json.Str unit);
      ("raw_min", Json.Num (minimum xs));
      ("raw_q1", Json.Num q1);
      ("raw_median", Json.Num m);
      ("raw_q3", Json.Num q3);
      ("raw_max", Json.Num (List.fold_left Float.max neg_infinity xs));
      ("n", Json.Num (float_of_int (List.length xs)));
    ]

(* --- provenance -------------------------------------------------------- *)

let first_line path =
  try In_channel.with_open_text path In_channel.input_line with Sys_error _ -> None

let loadavg () =
  match first_line "/proc/loadavg" with Some l -> Json.Str l | None -> Json.Null

(* [true] when git reports any change to the tree, [null] outside a git
   checkout. *)
let dirty_tree () =
  if not (Sys.file_exists ".git") then Json.Null
  else
    try
      let ic = Unix.open_process_args_in "git" [| "git"; "status"; "--porcelain" |] in
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Json.Bool (String.trim out <> "")
      | _ -> Json.Null
    with Unix.Unix_error _ -> Json.Null

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      find ())

let minor_heap_words () =
  let words () = float_of_int (Gc.get ()).Gc.minor_heap_size in
  Json.Obj
    [
      ("main_domain", Json.Num (words ()));
      ("spawned_domain", Json.Num (Domain.join (Domain.spawn words)));
    ]

(* --- child: one workload ---------------------------------------------- *)

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ("gc.minor_words", b.Gc.minor_words -. a.Gc.minor_words);
    ("gc.promoted_words", b.Gc.promoted_words -. a.Gc.promoted_words);
    ("gc.major_collections", float_of_int (b.Gc.major_collections - a.Gc.major_collections));
  ]

(* Run [f 0], [f 1], ... at least once, and again while one more call,
   as long as the last, still ends within [seconds]. *)
let until_elapsed seconds f =
  let t0 = W.now () in
  let rec go k acc =
    let t = W.now () in
    let acc = f k :: acc in
    let t' = W.now () in
    if t' +. (t' -. t) -. t0 > seconds then List.rev acc else go (k + 1) acc
  in
  go 0 []

let layer_medians reps =
  match reps with
  | [] -> []
  | (r : W.rep) :: _ ->
      List.map
        (fun (name, unit, _) ->
          ( name,
            sample unit
              (List.map
                 (fun (r : W.rep) ->
                   List.find_map
                     (fun (n, _, v) -> if n = name then Some v else None)
                     r.W.layer
                   |> Option.get)
                 reps) ))
        r.W.layer

(* The pinned suite report the checks compare against, relative to the
   root of the checkout. *)
let baseline = "bench/BENCH_baseline.json"

let child (w : W.t) ~seed ~seconds ~traced ~result =
  let utc_start = Suite.utc_now () and load_start = loadavg () in
  let scratch = result ^ ".tmp" in
  Unix.mkdir scratch 0o755;
  let checks = W.new_checks () in
  let inst =
    w.W.start
      { W.seed; baseline = In_channel.with_open_bin baseline In_channel.input_all; scratch; checks }
  in
  (* No forced collection between reps: reps run back to back as in a
     long-lived process.  Collecting first makes each rep fault its heap
     back in, which made open_million's set-up time bimodal (0.3 or
     0.45 ms) and its reps slower and noisier on a 2-core VM. *)
  let measured mode =
    let g0 = Gc.quick_stat () in
    let r = inst.W.rep mode in
    (r, gc_delta g0 (Gc.quick_stat ()))
  in
  let reps, metrics, extra, host =
    if not traced then begin
      ignore (measured W.Untraced) (* warm-up *);
      (* the peak of one set-up and rep in a fresh process, which later
         reps do not move: a faster program running more reps in the same
         seconds must not read as a larger one *)
      let peak_rss = peak_rss_mb () in
      let runs =
        until_elapsed seconds (fun _ ->
            let r = inst.W.rep W.Untraced in
            (* Set-ups alone: the set-up is short (20 us to 5 ms), so one
               per rep is too few samples.  The first after a rep runs with
               cold caches, as does the rep's own after the probes; both
               are left out, or the median would fall between cold and
               warm samples depending on how many fit in a rep. *)
            ignore (inst.W.setup ());
            let setups = for_3pct_of r.W.run_s inst.W.setup in
            let probes = for_3pct_of r.W.run_s probe in
            (r, setups, probes))
      in
      ignore (inst.W.finish ());
      let reps = List.map (fun (r, _, _) -> r) runs in
      let probes = List.concat_map (fun (_, _, p) -> p) runs in
      let scale = reference_probe_s /. minimum probes in
      (* the best rep, from each slice at its fastest in the run *)
      let best_run_s =
        let slices = List.map (fun r -> Array.of_list r.W.slices) reps in
        Array.fold_left ( +. ) 0.
          (Array.mapi
             (fun i _ -> minimum (List.map (fun s -> s.(i)) slices))
             (List.hd slices))
      in
      (* the work of every rep is the same *)
      let best_rate unit work =
        measured_value unit
          (work (List.hd reps) /. best_run_s /. scale)
          (List.map (fun r -> work r /. r.W.run_s) reps)
      in
      let metric (name, unit) =
        ( name,
          match name with
          | "setup_s" ->
              let best = minimum (List.map (fun (_, s, _) -> Stats.median s) runs) in
              measured_value unit (best *. scale) (List.concat_map (fun (_, s, _) -> s) runs)
          | "wall_s" ->
              measured_value unit (best_run_s *. scale) (List.map (fun r -> r.W.run_s) reps)
          | "sim_s_per_host_s" -> best_rate unit (fun r -> r.W.sim_s)
          | "peak_rss_mb" -> single unit peak_rss
          | _ -> failwith ("no measurement for " ^ name) )
      in
      let rate =
        match w.W.rate with
        | Some name -> [ (name, best_rate "1/s" (fun r -> r.W.work)) ]
        | None -> []
      in
      let host =
        [
          ( "host_speed",
            Json.Obj
              [
                ("reference_probe_s", Json.Num reference_probe_s);
                ("probe", measured_value "s" (minimum probes) probes);
                ("scale", Json.Num scale);
              ] );
        ]
      in
      (List.length reps, List.map metric end_to_end, rate, host)
    end
    else begin
      (* The counting rep doubles as the warm-up.  Then untraced and traced
         reps alternate, each pair in the opposite order to the last. *)
      let counting, _ = measured W.Counting in
      let pairs =
        until_elapsed seconds (fun k ->
            if k mod 2 = 0 then
              let u = measured W.Untraced in
              (u, fst (measured W.Traced))
            else
              let t = fst (measured W.Traced) in
              (measured W.Untraced, t))
      in
      let traced = List.map snd pairs in
      let untraced_gc = List.map (fun ((_, g), _) -> g) pairs in
      let rep_s (r : W.rep) = r.W.setup_s +. r.W.run_s in
      let overheads = List.map (fun ((u, _), t) -> rep_s t -. rep_s u) pairs in
      let events = float_of_int counting.W.events in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then
            failwith ("undeclared per-layer count " ^ name))
        counting.W.counts;
      let metric (name, unit) =
        let gc k = List.map (List.assoc k) untraced_gc in
        ( name,
          match name with
          | "host.setup_s" -> sample unit (List.map (fun r -> r.W.setup_s) traced)
          | "host.run_s" -> sample unit (List.map (fun r -> r.W.run_s) traced)
          | "trace.overhead_s" -> sample unit overheads
          | "sim.events" -> single unit events
          | "gc.minor_words" | "gc.promoted_words" | "gc.major_collections" ->
              sample unit (gc name)
          | "gc.minor_words_per_event" ->
              sample unit (List.map (fun w -> w /. events) (gc "gc.minor_words"))
          | _ ->
              single unit
                (Option.value ~default:0. (List.assoc_opt name counting.W.counts)) )
      in
      let finish =
        List.map (fun (name, unit, v) -> (name, single unit v)) (inst.W.finish ())
      in
      (List.length pairs, List.map metric per_layer, layer_medians traced @ finish, [])
    end
  in
  let attempted = checks.W.attempted and failed = checks.W.failed in
  let failed_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  Sys.rmdir scratch;
  Json.write_file result
    (Json.Obj
       ([
         ("schema", Json.Str "dipc-benchmark/v1");
         ("workload", Json.Str w.W.name);
         ("seed", Json.Num (float_of_int seed));
         ("trace", Json.Num (if traced then 1. else 0.));
         ("seconds", Json.Num seconds);
         ("reps", Json.Num (float_of_int reps));
         ("correct", Json.Bool (failed = 0 && attempted > 0));
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "failures",
           Json.List
             (List.rev_map
                (fun (c, d) -> Json.Obj [ ("check", Json.Str c); ("detail", Json.Str d) ])
                checks.W.failures) );
         ("metrics", Json.Obj metrics);
         ("extra", Json.Obj (extra @ [ ("failed_frac", single "1" failed_frac) ]));
       ]
     @ host
     @ [
         ( "provenance",
           Json.Obj
             [
               ("commit", Json.Str (Suite.git_commit ()));
               ("dirty", dirty_tree ());
               ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
               ("ocaml_version", Json.Str Sys.ocaml_version);
               ("ocamlrunparam", Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
               ("minor_heap_words", minor_heap_words ());
               ("utc_start", Json.Str utc_start);
               ("utc_end", Json.Str (Suite.utc_now ()));
               ("loadavg_start", load_start);
               ("loadavg_end", loadavg ());
             ] );
       ]))

(* --- parent ------------------------------------------------------------ *)

let print_result path r =
  let num k = Json.to_float (Json.member k r) in
  Printf.printf "%s: seed %.0f, %s, %.0f %s, %.0f/%.0f checks passed  (%s)\n"
    (Json.to_str (Json.member "workload" r))
    (num "seed")
    (if num "trace" = 1. then "traced" else "untraced")
    (num "reps")
    (if num "trace" = 1. then "rep pairs" else "reps")
    (num "attempted" -. num "failed")
    (num "attempted") path;
  let show (name, m) =
    let f k = Json.to_float (Json.member k m) in
    Printf.printf "  %-30s %-14s %s" name
      (Json.number (f "value"))
      (Json.to_str (Json.member "unit" m));
    (match List.filter (fun (k, _) -> k <> "value" && k <> "unit") (Json.to_obj m) with
    | [] -> ()
    | kvs ->
        Printf.printf "  (%s)"
          (String.concat ", "
             (List.map (fun (k, v) -> k ^ " " ^ Json.number (Json.to_float v)) kvs)));
    print_newline ()
  in
  List.iter show (Json.to_obj (Json.member "metrics" r));
  List.iter show (Json.to_obj (Json.member "extra" r));
  List.iter
    (fun f ->
      Printf.printf "  FAILED %s: %s: %s\n"
        (Json.to_str (Json.member "workload" r))
        (Json.to_str (Json.member "check" f))
        (Json.to_str (Json.member "detail" f)))
    (Json.to_list (Json.member "failures" r))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* [k] skips a left-over scratch directory of a crashed child, too. *)
let next_result_path out name =
  let rec go k =
    let p = Filename.concat out (Printf.sprintf "%s-%d.json" name k) in
    if Sys.file_exists p || Sys.file_exists (p ^ ".tmp") then go (k + 1) else p
  in
  go 1

let rec wait pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let run_child (w : W.t) ~seed ~seconds ~traced ~out =
  let result = next_result_path out w.W.name in
  let args =
    [|
      Sys.executable_name; "--child"; w.W.name; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
      "--result"; result;
    |]
  in
  let env =
    Array.append [| gc_params |]
      (Array.of_list
         (List.filter
            (fun e -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" e))
            (Array.to_list (Unix.environment ()))))
  in
  (* the child's chatter goes to stderr: stdout carries the results *)
  let pid = Unix.create_process_env Sys.executable_name args env Unix.stdin Unix.stderr Unix.stderr in
  match wait pid with
  | Unix.WEXITED 0 when Sys.file_exists result -> Some (result, Json.read_file result)
  | _ ->
      Printf.eprintf "workload %s: child process failed\n%!" w.W.name;
      None

let summary r =
  let m = Json.to_obj (Json.member "metrics" r) in
  Json.Obj
    [
      ("correct", Json.member "correct" r);
      ("attempted", Json.member "attempted" r);
      ("failed", Json.member "failed" r);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) ->
               (k, Json.Obj [ ("value", Json.member "value" v); ("unit", Json.member "unit" v) ]))
             m) );
    ]

(* --- compare ------------------------------------------------------------- *)

(* Declares the metrics and their bounds, and the run length when
   --seconds is not given. *)
let benchmark_json = "BENCHMARK.json"

(* Untraced result files of [dir], by workload, in run order. *)
let load_results dir =
  let index f =
    match String.rindex_opt f '-' with
    | Some i -> int_of_string_opt (Filename.chop_extension (String.sub f (i + 1) (String.length f - i - 1)))
    | None -> None
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".json" then
           Option.map (fun k -> (k, Json.read_file (Filename.concat dir f))) (index f)
         else None)
  |> List.filter (fun (_, r) -> Json.to_float (Json.member "trace" r) = 0.)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let compare_dirs a b =
  let bench = Json.read_file benchmark_json in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "better" m),
          Json.to_float (Json.member "bound" m) ))
      (Json.to_list (Json.member "end_to_end" bench))
  in
  let ra = load_results a and rb = load_results b in
  let workload r = Json.to_str (Json.member "workload" r) in
  (match List.sort_uniq compare (List.map (fun r -> Json.to_float (Json.member "seconds" r)) (ra @ rb)) with
  | [] | [ _ ] -> ()
  | ss ->
      Printf.printf "note: runs of different lengths (--seconds %s)\n"
        (String.concat ", " (List.map Json.number ss)));
  let names =
    List.sort_uniq compare (List.map workload ra)
    |> List.filter (fun n -> List.exists (fun r -> workload r = n) rb)
  in
  if names = [] then begin
    prerr_endline "compare: no workload has untraced results in both directories";
    exit 2
  end;
  Printf.printf "%-13s %-17s %-34s %-34s %-6s %s\n" "workload" "metric"
    ("A " ^ a ^ " median [q1, q3]") ("B " ^ b ^ " median [q1, q3]") "B wins" "verdict";
  let regressed = ref false in
  List.iter
    (fun n ->
      let of_dir rs = List.filter (fun r -> workload r = n) rs in
      let xa = of_dir ra and xb = of_dir rb in
      List.iter
        (fun (m, better, bound) ->
          let values rs =
            List.map
              (fun r -> Json.to_float (Json.member "value" (Json.member m (Json.member "metrics" r))))
              rs
          in
          let v = Stats.verdict ~better ~bound (values xa) (values xb) in
          if v.Stats.verdict = "regressed" then regressed := true;
          let q (l, m, h) = Printf.sprintf "%.6g [%.6g, %.6g]" m l h in
          Printf.printf "%-13s %-17s %-34s %-34s %2d/%-3d %s (bound %g%%)\n" n m (q v.Stats.a)
            (q v.Stats.b) v.Stats.wins v.Stats.pairs v.Stats.verdict (100. *. bound))
        metrics;
      let failed rs =
        List.fold_left (fun (f, t) r ->
            (f +. Json.to_float (Json.member "failed" r), t +. Json.to_float (Json.member "attempted" r)))
          (0., 0.) rs
      in
      let fa, ta = failed xa and fb, tb = failed xb in
      Printf.printf "%-13s %-17s A %.0f/%.0f, B %.0f/%.0f checks failed\n" n "failed" fa ta fb tb)
    names;
  if !regressed then exit 1

(* --- command line ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
    \       run.exe compare DIR_A DIR_B";
  exit 2

let () =
  let workload name =
    match List.find_opt (fun w -> w.W.name = name) W.all with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; workloads: %s\n" name
          (String.concat " " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  let num conv flag v =
    match conv v with
    | Some x -> x
    | None ->
        Printf.eprintf "%s: bad value %S\n" flag v;
        exit 2
  in
  let chosen = ref [] and seed = ref None and seconds = ref None and traced = ref false in
  let out = ref "benchmark/_results" in
  let child_of = ref None and result = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> chosen := workload v :: !chosen; parse rest
    | "--seed" :: v :: rest -> seed := Some (num int_of_string_opt "--seed" v); parse rest
    | "--seconds" :: v :: rest ->
        seconds := Some (num (fun s -> Option.bind (float_of_string_opt s) (fun f -> if f >= 0. then Some f else None)) "--seconds" v);
        parse rest
    | "--trace" :: v :: rest ->
        traced := num (function "0" -> Some false | "1" -> Some true | _ -> None) "--trace" v;
        parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--child" :: v :: rest -> child_of := Some (workload v); parse rest
    | "--result" :: v :: rest -> result := Some v; parse rest
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_dirs a b
  | args -> (
      parse args;
      let seed_of (w : W.t) = Option.value !seed ~default:w.W.default_seed in
      let seconds =
        match !seconds with
        | Some s -> s
        | None -> Json.to_float (Json.member "run_seconds" (Json.read_file benchmark_json))
      in
      match (!child_of, !result) with
      | Some w, Some result ->
          child w ~seed:(seed_of w) ~seconds ~traced:!traced ~result
      | Some _, None | None, Some _ -> usage ()
      | None, None ->
          let ws = if !chosen = [] then W.all else List.rev !chosen in
          mkdir_p !out;
          let results =
            List.map
              (fun w ->
                let r =
                  run_child w ~seed:(seed_of w) ~seconds ~traced:!traced ~out:!out
                in
                Option.iter (fun (path, r) -> print_result path r) r;
                r)
              ws
          in
          if List.mem None results then exit 1;
          match results with
          | [ Some (_, r) ] -> print_endline (Json.to_string (summary r))
          | _ -> ())
