(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (EuroSys'17, Vilanova et al.).  The experiments and the
   cell registry live in [bench/suite.ml] (library [dipc_bench_suite])
   so the test suite can link them.

     dune exec bench/main.exe            -- run every paper experiment
     dune exec bench/main.exe -- fig5    -- one experiment
     experiments: fig1 fig2 table1 fig5 fig6 fig7 fig8 sens-calls sens-caps
                  stub-coopt templates ablate ablate-gvas bechamel
     dune exec bench/main.exe -- oltp_dipc_mem96   -- one registry cell,
                                           printing its report line

   Modes (each runs one family of registry cells):
     --trace [FILE]     fixed-config traced run, Chrome trace + digest
     --json  [FILE]     fixed-seed digest suite, machine-readable JSON
     --matrix           fault-injection matrix over every IPC primitive
                        and the OLTP/netpipe workloads
     --security         cost-of-isolation posture matrix: {strict, audit,
                        permissive} x {CODOMs, CHERI, MMP} x {clean,
                        under-attack}, both interpreter paths per cell
     --open [ARRIVAL]   open-arrival load sweep: offered load vs tail
                        latency (p50/p99/p999) per IPC primitive vs dIPC,
                        >1M simulated client sessions, saturation knees;
                        ARRIVAL is poisson (default), bursty or diurnal

   Flags (recognised anywhere on the command line, applied to every
   cell by the one runner):
     --check            attach the online invariant checker to traced runs
     --inject SEED      install a seeded fault injector (same seed =>
                        byte-identical injected digest); the base seed
                        of --matrix
     --posture NAME     default enforcement posture (strict | audit |
                        permissive) for machines created by experiments;
                        pinned digests assume strict
     --jobs N           spread the cells over N domains (0 = one per
                        recommended core); digests and printed results are
                        identical at any N
     --shards N         split each open-arrival simulation (the four
                        open_* cells of --json, every cell of --open) into
                        N conservative-DES shards (0 = one per recommended
                        core); no other cell is split, and digests and
                        printed results are identical at any N
     --reference        force the machine's reference interpreter (disable
                        the compiled superblock path); results and digests
                        are identical either way — triage only *)

module Suite = Dipc_bench_suite.Suite

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let count flag s =
  match int_of_string_opt s with
  | Some 0 -> Dipc_sim.Parallel.default_jobs ()
  | Some n when n > 0 -> n
  | _ -> die "%s needs a non-negative integer, got %S" flag s

let rec parse (o : Suite.opts) acc = function
  | [] -> (o, List.rev acc)
  | "--check" :: rest -> parse { o with check = true } acc rest
  | "--reference" :: rest ->
      Dipc_hw.Machine.set_default_reference true;
      parse o acc rest
  | "--posture" :: s :: rest -> (
      match Dipc_hw.Fault.posture_of_string s with
      | Some p ->
          Dipc_hw.Fault.set_default_posture p;
          parse o acc rest
      | None -> die "--posture needs strict | audit | permissive, got %S" s)
  | "--inject" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> parse { o with inject_seed = Some seed } acc rest
      | None -> die "--inject needs an integer seed, got %S" s)
  | "--jobs" :: s :: rest -> parse { o with jobs = count "--jobs" s } acc rest
  | "--shards" :: s :: rest ->
      parse { o with shards = count "--shards" s } acc rest
  | [ "--posture" ] -> die "--posture needs strict | audit | permissive"
  | [ "--inject" ] -> die "--inject needs an integer seed"
  | [ (("--jobs" | "--shards") as flag) ] -> die "%s needs an integer count" flag
  | x :: rest -> parse o (x :: acc) rest

(* Each mode flag selects one family; its optional argument is the
   --json report file or the --open arrival process. *)
let modes =
  [
    ("--json", fun _ -> Suite.Pinned);
    ("--matrix", fun _ -> Suite.Matrix);
    ("--security", fun _ -> Suite.Security);
    ( "--open",
      function
      | None -> Suite.Open Suite.OL.Poisson
      | Some s -> (
          match Suite.OL.arrival_of_string s with
          | Some a -> Suite.Open a
          | None -> die "--open takes poisson | bursty | diurnal, got %S" s) );
  ]

let () =
  let o, args = parse Suite.default_opts [] (List.tl (Array.to_list Sys.argv)) in
  match args with
  | "--trace" :: rest ->
      Suite.trace_smoke (Option.value (List.nth_opt rest 0) ~default:"trace.json")
  | mode :: rest when List.mem_assoc mode modes ->
      let arg = List.nth_opt rest 0 in
      let family = List.assoc mode modes arg in
      Suite.report ?out:(if family = Suite.Pinned then arg else None) o family
  (* flags without a mode: run the digest suite under them *)
  | [] when o.check || o.inject_seed <> None -> Suite.report o Suite.Pinned
  | [] -> List.iter (fun (_, f) -> f ()) Suite.experiments
  | names ->
      List.iter
        (fun name ->
          match (List.assoc_opt name Suite.experiments, Suite.find name) with
          | Some f, _ -> f ()
          | None, Some cell -> ignore (Suite.run_cells o [ cell ])
          | None, None ->
              Printf.eprintf
                "unknown experiment %s; available: %s (or a registry cell name)\n"
                name
                (String.concat " " (List.map fst Suite.experiments));
              exit 1)
        names
