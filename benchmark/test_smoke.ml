(* Runtest smoke for the benchmark.  One rep of every workload that
   BENCHMARK.json declares, untraced and traced, must pass all its checks
   and report every declared metric with its declared unit.  Then the
   mutation case: against a baseline with one pinned digest altered, the
   runner must report the failure and name the workload and the check.
   Last, the verdicts of [run.exe compare] on fixed samples. *)

module Json = Dipc_benchmark.Json
module Stats = Dipc_benchmark.Stats

let failures = ref 0

let expect ok what =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let out_dir = "benchmark/_smoke"

let log = Filename.concat out_dir "log.txt"

(* Run the runner in the current directory; returns its exit status and
   stdout lines.  The workloads' own chatter (stderr) goes to the log. *)
let run ~exe ~log args =
  let stdout_path = Filename.concat (Filename.dirname log) "stdout.txt" in
  let fd_out = Unix.openfile stdout_path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fd_log = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out fd_log in
  let _, status = Unix.waitpid [] pid in
  Unix.close fd_out;
  Unix.close fd_log;
  let lines = In_channel.with_open_text stdout_path In_channel.input_all in
  (status, String.split_on_char '\n' (String.trim lines))

let replace_first s ~sub ~by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg "replace_first: not found"
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let last_json lines = Json.of_string (List.nth lines (List.length lines - 1))

let declared bench key =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key bench))

let verdicts () =
  let v better xs ys = (Stats.verdict ~better ~bound:0.1 xs ys).Stats.verdict in
  let a = [ 1.00; 1.02; 0.98; 1.01; 0.99; 1.00; 1.03; 0.97; 1.00; 1.01 ] in
  let scale k = List.map (fun x -> x *. k) a in
  let case what got want =
    expect (got = want) (Printf.sprintf "verdict %s: got %s, want %s" what got want)
  in
  case "same runs" (v "lower" a a) "unchanged";
  case "every run 20% faster" (v "lower" a (scale 0.8)) "improved";
  case "every run 20% slower" (v "lower" a (scale 1.2)) "regressed";
  case "throughput 20% higher" (v "higher" a (scale 1.2)) "improved";
  (* spreads wider than the bound *)
  let wide = [ 0.70; 1.30; 0.80; 1.20; 0.90; 1.10; 1.00; 0.75; 1.25; 1.00 ] in
  case "wide, same median" (v "lower" wide (List.rev wide)) "unresolved";
  let wide_slow = List.map (fun x -> x +. 1.) wide in
  case "wide, every B run worse than every A run" (v "lower" wide wide_slow) "regressed";
  case "wide, every B run better than every A run" (v "lower" wide_slow wide) "improved"

let () =
  verdicts ();
  (* dune runs tests in _build/default/benchmark; the runner reads
     bench/BENCH_baseline.json relative to its working directory *)
  Sys.chdir "..";
  if Sys.file_exists out_dir then rm_rf out_dir;
  Sys.mkdir out_dir 0o755;
  let exe = Filename.concat (Sys.getcwd ()) "benchmark/run.exe" in
  let log = Filename.concat (Sys.getcwd ()) log in
  let run = run ~exe ~log in
  let bench = Json.read_file "BENCHMARK.json" in
  let workloads =
    List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" bench))
  in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let what = Printf.sprintf "%s --trace %s" w trace in
          let status, lines =
            run [ "--workload"; w; "--seconds"; "0"; "--trace"; trace; "--out"; out_dir ]
          in
          expect (status = Unix.WEXITED 0) (what ^ ": runner exit status");
          match last_json lines with
          | exception _ -> expect false (what ^ ": no JSON summary line")
          | r ->
              let num k = Json.to_float (Json.member k r) in
              expect (Json.to_bool (Json.member "correct" r)) (what ^ ": correct");
              expect (num "attempted" >= 1. && num "failed" = 0.) (what ^ ": failed_frac = 0");
              let metrics = Json.to_obj (Json.member "metrics" r) in
              List.iter
                (fun (name, unit) ->
                  match List.assoc_opt name metrics with
                  | Some m ->
                      expect
                        (Json.to_str (Json.member "unit" m) = unit)
                        (Printf.sprintf "%s: %s unit" what name)
                  | None -> expect false (Printf.sprintf "%s: %s missing" what name))
                (declared bench key))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    workloads;
  (* mutation: in a directory of its own, alter the pinned trace digest
     of the dIPC OLTP cell *)
  let baseline = In_channel.with_open_bin "bench/BENCH_baseline.json" In_channel.input_all in
  let pinned =
    List.find
      (fun r -> Json.to_str (Json.member "name" r) = "oltp_dipc_mem96")
      (Json.to_list (Json.member "experiments" (Json.of_string baseline)))
    |> Json.member "digest" |> Json.to_str
  in
  let mutation_dir = Filename.concat out_dir "mutation" in
  Sys.mkdir mutation_dir 0o755;
  Sys.chdir mutation_dir;
  Sys.mkdir "bench" 0o755;
  Out_channel.with_open_bin "bench/BENCH_baseline.json" (fun oc ->
      output_string oc
        (replace_first baseline
           ~sub:(Printf.sprintf {|"digest": "%s"|} pinned)
           ~by:{|"digest": "0123456789abcdef"|}));
  let status, lines =
    run [ "--workload"; "oltp_dipc"; "--seconds"; "0"; "--out"; "results" ]
  in
  expect (status = Unix.WEXITED 0) "mutation: runner exit status";
  expect
    (List.exists (fun l -> l = "  FAILED oltp_dipc: trace digest vs oltp_dipc_mem96: expected 0123456789abcdef, got " ^ pinned) lines)
    "mutation: the failure names the workload and the check";
  (match Sys.readdir "results" with
  | [| f |] ->
      let r = Json.read_file (Filename.concat "results" f) in
      let frac =
        Json.to_float (Json.member "value" (Json.member "failed_frac" (Json.member "extra" r)))
      in
      expect (frac > 0.) "mutation: failed_frac > 0";
      expect (not (Json.to_bool (Json.member "correct" r))) "mutation: correct = false"
  | _ -> expect false "mutation: one result file");
  if !failures > 0 then begin
    Printf.printf "%d smoke check(s) failed; runner stderr in %s\n" !failures log;
    exit 1
  end;
  Printf.printf
    "benchmark smoke: %d workloads x 2 modes, the mutation case and the verdicts passed\n"
    (List.length workloads)
