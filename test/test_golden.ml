(* Golden-digest corpus: rerun all 37 benchmark experiments through the
   shared suite library and pin every replay digest against the
   committed bench/BENCH_baseline.json.  Any unintended change to the
   event timeline — engine, kernel, IPC layer, workloads — shows up
   here as a digest mismatch naming the experiment that moved.

   Parsing lives in bench/golden.ml, shared with the CI comparator
   (bench/check_golden.ml) and the parallel differential tests.  The
   mutation smokes below corrupt synthetic reports cell by cell and
   assert the comparator fails loudly, naming the offending cell: a
   gate that cannot fail is not a gate. *)

module Suite = Dipc_bench_suite.Suite
module Golden = Dipc_bench_suite.Golden
module Parallel = Dipc_sim.Parallel

(* The dune rule copies the baseline next to the test binary. *)
let baseline_path = "../bench/BENCH_baseline.json"

let pinned_experiments = 37

let test_baseline_parses () =
  let pins = Golden.parse_file baseline_path in
  Alcotest.(check int) "37 pinned experiments" pinned_experiments
    (List.length pins);
  List.iter
    (fun (name, digest) ->
      Alcotest.(check bool)
        (name ^ " has a digest")
        true
        (String.length digest > 0))
    pins

(* Every pinned row carries the counters column, and the rows that run
   on the machine dispatcher pin non-trivial deterministic counters. *)
let test_baseline_counters_present () =
  let rows = Golden.parse_rows (Golden.read_file baseline_path) in
  Alcotest.(check int) "row parser sees the full corpus" pinned_experiments
    (List.length rows);
  let machine_rows =
    List.filter
      (fun r ->
        r.Golden.r_name = "machine_hotloop"
        || r.Golden.r_name = "machine_superblock"
        || r.Golden.r_name = "machine_callret")
      rows
  in
  Alcotest.(check int) "machine rows present" 3 (List.length machine_rows);
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        (r.Golden.r_name ^ " counter schema")
        [
          "instret"; "blocks"; "sb_hits"; "sb_xlate"; "side_exits";
          "ras_hits"; "ras_misses"; "ic_hits"; "ic_misses";
        ]
        (List.map fst r.Golden.r_counters);
      Alcotest.(check bool)
        (r.Golden.r_name ^ " retired instructions")
        true
        (List.assoc "instret" r.Golden.r_counters > 0))
    machine_rows

(* The heavyweight corpus rerun goes through the work-queue runner: the
   digests are pinned against the serial baseline, so this doubles as a
   serial==parallel proof on multi-core machines while cutting the
   runtest critical path. *)
let test_digests_match_baseline () =
  let pins = Golden.parse_file baseline_path in
  let results =
    Suite.rows
      (Suite.run_cells
         { Suite.default_opts with jobs = Parallel.default_jobs () }
         (Suite.cells_of Suite.Pinned))
  in
  Alcotest.(check int) "suite covers the pinned corpus" (List.length pins)
    (List.length results);
  List.iter2
    (fun (name, digest) r ->
      Alcotest.(check string) ("experiment order: " ^ name) name
        r.Suite.b_name;
      Alcotest.(check string) ("digest: " ^ name) digest r.Suite.b_digest)
    pins results

(* --- the cell registry --- *)

let test_registry_names_unique () =
  let names = List.map (fun c -> c.Suite.name) Suite.cells in
  let sorted = List.sort_uniq String.compare names in
  Alcotest.(check int) "every cell name is unique" (List.length names)
    (List.length sorted)

(* The [Pinned] family is exactly the committed corpus, in its order:
   a cell added to the suite is a cell added to the baseline. *)
let test_registry_pinned_is_baseline () =
  Alcotest.(check (list string))
    "pinned family = bench/BENCH_baseline.json, in order"
    (List.map fst (Golden.parse_file baseline_path))
    (List.map (fun c -> c.Suite.name) (Suite.cells_of Suite.Pinned))

(* --- Comparator mutation smokes ----------------------------------------

   Synthetic two-row reports, mutated one cell at a time.  Each
   mutation must produce at least one mismatch whose name pinpoints
   the corrupted cell — these tests are the reason we can trust a
   green counter gate in CI. *)

let synth_report rows =
  let body =
    String.concat ",\n"
      (List.map
         (fun (name, counters, digest, mips) ->
           Printf.sprintf
             "    {\"name\": \"%s\", \"wall_s\": 0.1, \"sim_ns\": 1.0, \
              \"events\": 10, \"events_per_sec\": 100.0, \"instret\": %d, \
              \"sim_mips\": %.3f, \"minor_words\": 0, \
              \"counters\": {%s}, \
              \"digest\": \"%s\", \"metric_name\": \"m\", \"metric\": 1.0}"
             name
             (match counters with (_, v) :: _ -> v | [] -> 0)
             mips
             (String.concat ", "
                (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) counters))
             digest)
         rows)
  in
  Printf.sprintf
    "{\n  \"schema\": \"dipc-bench/v1\",\n  \"golden_digest\": \"abc\",\n\
    \  \"experiments\": [\n%s\n  ]\n}\n" body

let base_rows =
  [
    ("exp_a", [ ("instret", 100); ("blocks", 7) ], "d_a", 10.0);
    ("exp_b", [ ("instret", 200); ("blocks", 9) ], "d_b", 20.0);
  ]

let baseline_text = synth_report base_rows

let mm_names mms = List.map (fun m -> m.Golden.mm_name) mms

let test_counters_identity () =
  Alcotest.(check (list string))
    "identical reports produce no counter mismatch" []
    (mm_names
       (Golden.compare_counters ~baseline:baseline_text
          ~candidate:baseline_text))

let test_counters_corrupt_cell () =
  let candidate =
    synth_report
      [
        ("exp_a", [ ("instret", 100); ("blocks", 7) ], "d_a", 10.0);
        ("exp_b", [ ("instret", 201); ("blocks", 9) ], "d_b", 20.0);
      ]
  in
  let mms =
    Golden.compare_counters ~baseline:baseline_text ~candidate
  in
  Alcotest.(check (list string))
    "corrupted counter is named cell by cell" [ "exp_b.instret" ]
    (mm_names mms);
  let m = List.hd mms in
  Alcotest.(check string) "expected value" "200" m.Golden.mm_expected;
  Alcotest.(check string) "actual value" "201" m.Golden.mm_actual

let test_counters_dropped_row () =
  let candidate =
    synth_report [ ("exp_a", [ ("instret", 100); ("blocks", 7) ], "d_a", 10.0) ]
  in
  let mms =
    Golden.compare_counters ~baseline:baseline_text ~candidate
  in
  Alcotest.(check (list string))
    "dropped row is named" [ "exp_b" ] (mm_names mms);
  Alcotest.(check string) "missing side marked" "<missing row>"
    (List.hd mms).Golden.mm_actual

let test_counters_reordered_rows () =
  let candidate =
    synth_report
      [
        ("exp_b", [ ("instret", 200); ("blocks", 9) ], "d_b", 20.0);
        ("exp_a", [ ("instret", 100); ("blocks", 7) ], "d_a", 10.0);
      ]
  in
  let mms =
    Golden.compare_counters ~baseline:baseline_text ~candidate
  in
  Alcotest.(check bool) "reorder detected" true (mms <> []);
  Alcotest.(check bool) "reorder named positionally" true
    (List.exists
       (fun n -> n = "exp_a/exp_b (row order)")
       (mm_names mms))

let test_counters_dropped_key () =
  let candidate =
    synth_report
      [
        ("exp_a", [ ("instret", 100) ], "d_a", 10.0);
        ("exp_b", [ ("instret", 200); ("blocks", 9) ], "d_b", 20.0);
      ]
  in
  let mms =
    Golden.compare_counters ~baseline:baseline_text ~candidate
  in
  Alcotest.(check (list string))
    "dropped counter key is named" [ "exp_a.blocks" ] (mm_names mms)

let test_mips_ratchet () =
  Alcotest.(check (list string))
    "identical reports pass the ratchet" []
    (mm_names
       (Golden.compare_mips_ratchet ~ratio:0.25 ~baseline:baseline_text
          ~candidate:baseline_text));
  let slow =
    synth_report
      [
        ("exp_a", [ ("instret", 100); ("blocks", 7) ], "d_a", 10.0);
        ("exp_b", [ ("instret", 200); ("blocks", 9) ], "d_b", 1.0);
      ]
  in
  Alcotest.(check (list string))
    "regressed row is named" [ "exp_b" ]
    (mm_names
       (Golden.compare_mips_ratchet ~ratio:0.25 ~baseline:baseline_text
          ~candidate:slow));
  (* A 4x slack floor tolerates ordinary CI jitter: 60% of baseline
     passes at ratio 0.25. *)
  let jitter =
    synth_report
      [
        ("exp_a", [ ("instret", 100); ("blocks", 7) ], "d_a", 6.0);
        ("exp_b", [ ("instret", 200); ("blocks", 9) ], "d_b", 12.0);
      ]
  in
  Alcotest.(check (list string))
    "jitter within the floor passes" []
    (mm_names
       (Golden.compare_mips_ratchet ~ratio:0.25 ~baseline:baseline_text
          ~candidate:jitter))

(* The history trend reporter: needs two rows, diffs the last two,
   names sim-MIPS movement and counter deltas per cell, and stamps each
   row's commit with its tree state (clean, dirty, or unrecorded for
   rows written before the flag existed). *)
let test_trend_report () =
  let hist_row ?dirty commit mips counters =
    Printf.sprintf
      "{\"schema\": \"dipc-bench-hist/v1\", \"commit\": \"%s\", %s\"utc\": \
       \"2026-01-01T00:00:00Z\", \"experiments\": [{\"name\": \"exp_a\", \
       \"sim_mips\": %.3f, \"counters\": {%s}}]}"
      commit
      (match dirty with
      | Some d -> Printf.sprintf "\"dirty\": %b, " d
      | None -> "")
      mips counters
  in
  (match Golden.trend_report ~history:(hist_row "aaa" 10.0 "\"side_exits\": 5")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a single row cannot trend");
  let history =
    hist_row ~dirty:false "aaa" 10.0 "\"side_exits\": 5"
    ^ "\n"
    ^ hist_row ~dirty:true "bbb" 13.0 "\"side_exits\": 2"
    ^ "\n"
  in
  (match
     Golden.trend_report
       ~history:
         (hist_row "old" 10.0 "" ^ "\n" ^ hist_row ~dirty:false "new" 10.0 "")
   with
  | Error m -> Alcotest.fail m
  | Ok lines ->
      Alcotest.(check string) "unrecorded tree state is named"
        "trend: old (tree unrecorded) @ 2026-01-01T00:00:00Z -> new (clean) @ \
         2026-01-01T00:00:00Z"
        (List.hd lines));
  match Golden.trend_report ~history with
  | Error m -> Alcotest.fail m
  | Ok lines ->
      let text = String.concat "\n" lines in
      let has s = Golden.find_sub text s 0 <> None in
      Alcotest.(check bool) "header names both commits" true
        (has "aaa" && has "bbb");
      Alcotest.(check bool) "header marks the dirty row" true
        (has "aaa (clean)" && has "bbb (dirty)");
      Alcotest.(check bool) "sim-MIPS delta reported" true (has "+30.0%");
      Alcotest.(check bool) "counter delta reported" true
        (has "side_exits 5 -> 2")

let suites =
  [
    ( "golden",
      [
        Alcotest.test_case "baseline corpus parses" `Quick test_baseline_parses;
        Alcotest.test_case "baseline pins the counter columns" `Quick
          test_baseline_counters_present;
        Alcotest.test_case "all 37 digests match the baseline" `Slow
          test_digests_match_baseline;
        Alcotest.test_case "registry: cell names unique" `Quick
          test_registry_names_unique;
        Alcotest.test_case "registry: pinned family is the baseline" `Quick
          test_registry_pinned_is_baseline;
        Alcotest.test_case "counter gate: identity" `Quick
          test_counters_identity;
        Alcotest.test_case "counter gate: corrupted cell named" `Quick
          test_counters_corrupt_cell;
        Alcotest.test_case "counter gate: dropped row named" `Quick
          test_counters_dropped_row;
        Alcotest.test_case "counter gate: reordered rows named" `Quick
          test_counters_reordered_rows;
        Alcotest.test_case "counter gate: dropped key named" `Quick
          test_counters_dropped_key;
        Alcotest.test_case "sim_mips ratchet" `Quick test_mips_ratchet;
        Alcotest.test_case "history trend report" `Quick test_trend_report;
      ] );
  ]
