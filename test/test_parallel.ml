(* The multicore runner (lib/sim/parallel.ml) and its determinism
   contract: per-run isolation + order-independent merge means the
   replay digests of a sharded run are byte-identical to the serial
   ones.  The proofs here are differential — the same work submitted at
   different job counts (and in shuffled order) must produce the same
   values in the same places. *)

module Parallel = Dipc_sim.Parallel
module Suite = Dipc_bench_suite.Suite
module Golden = Dipc_bench_suite.Golden
module Trace = Dipc_sim.Trace
module Inject = Dipc_sim.Inject
module Checker = Dipc_sim.Checker
module M = Dipc_workloads.Microbench

let baseline_path = "../bench/BENCH_baseline.json"

(* --- runner mechanics --- *)

let test_merge_preserves_submission_order () =
  (* Tasks that finish in reverse submission order (the early tasks do
     the most work) still merge in submission order. *)
  let n = 64 in
  let tasks =
    Array.init n (fun i ->
        ( Printf.sprintf "t%d" i,
          fun () ->
            let spin = ref 0 in
            for _ = 1 to (n - i) * 10_000 do
              incr spin
            done;
            i ))
  in
  let out = Parallel.run ~jobs:4 tasks in
  Alcotest.(check int) "one outcome per task" n (Array.length out);
  Array.iteri
    (fun i o ->
      Alcotest.(check int) (Printf.sprintf "slot %d holds task %d" i i) i
        o.Parallel.o_value;
      Alcotest.(check string) "id preserved" (Printf.sprintf "t%d" i)
        o.Parallel.o_id)
    out

let test_jobs_clamped () =
  (* More jobs than tasks, zero/negative jobs: all clamp, none crash. *)
  let tasks = Array.init 3 (fun i -> (string_of_int i, fun () -> i * i)) in
  List.iter
    (fun jobs ->
      let out = Parallel.run ~jobs tasks in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        [ 0; 1; 4 ]
        (Array.to_list (Array.map (fun o -> o.Parallel.o_value) out)))
    [ -1; 0; 1; 3; 16 ]

let test_exception_propagates_lowest_index () =
  (* Two failing tasks: the re-raised exception is the lowest-index one,
     whatever domain hit it first. *)
  let tasks =
    [|
      ("ok", fun () -> 1);
      ("boom2", fun () -> failwith "boom2");
      ("ok2", fun () -> 2);
      ("boom5", fun () -> failwith "boom5");
    |]
  in
  List.iter
    (fun jobs ->
      match Parallel.run ~jobs tasks with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "lowest-index failure at jobs=%d" jobs)
            "boom2" msg)
    [ 1; 2; 4 ]

let test_per_run_stats_populated () =
  let out = Parallel.run ~jobs:2 [| ("alloc", fun () -> List.init 10_000 Fun.id) |] in
  let o = out.(0) in
  Alcotest.(check bool) "wall time non-negative" true (o.Parallel.o_wall_s >= 0.);
  Alcotest.(check bool) "allocation observed" true (o.Parallel.o_minor_words > 0.);
  Alcotest.(check bool) "worker id in range" true (o.Parallel.o_worker >= 0)

(* --- differential digest proofs --- *)

let pinned = Suite.cells_of Suite.Pinned

let run_rows ?(shards = 1) ~jobs cells =
  Suite.rows (Suite.run_cells { Suite.default_opts with jobs; shards } cells)

(* The serial reference is the committed baseline (test_golden pins the
   serial suite against it); here the same suite runs sharded, at two
   job counts, and must land on the same 37 digests. *)
let test_suite_digests_jobs_invariant () =
  let pins = Golden.parse_file baseline_path in
  List.iter
    (fun jobs ->
      List.iter2
        (fun (name, digest) r ->
          Alcotest.(check string)
            (Printf.sprintf "%s at jobs=%d" name jobs)
            digest r.Suite.b_digest)
        pins (run_rows ~jobs pinned))
    [ 2; 4 ]

(* Shuffled submission: the work-queue hands out tasks in submission
   order, but nothing in the contract depends on what that order is —
   permute the cells, run sharded, un-permute, same digests. *)
let test_suite_digests_shuffle_invariant () =
  let pins = Array.of_list (Golden.parse_file baseline_path) in
  let cells = Array.of_list pinned in
  let n = Array.length cells in
  (* Fixed permutation (seeded LCG Fisher-Yates: no global RNG). *)
  let perm = Array.init n Fun.id in
  let state = ref 0x9e3779b9 in
  for i = n - 1 downto 1 do
    state := (!state * 1103515245) + 12345;
    let j = abs !state mod (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let shuffled = Array.to_list (Array.map (fun i -> cells.(i)) perm) in
  List.iteri
    (fun slot r ->
      let name, digest = pins.(perm.(slot)) in
      Alcotest.(check string) ("shuffled order: " ^ name) name r.Suite.b_name;
      Alcotest.(check string) ("shuffled digest: " ^ name) digest
        r.Suite.b_digest)
    (run_rows ~jobs:3 shuffled)

(* [--shards] reaches only the four open-arrival cells (the OLTP cells
   run on one engine): split at 2 shards, each must still land on its
   serial pin. *)
let test_open_cells_shards_invariant () =
  let pins = Golden.parse_file baseline_path in
  let open_cells =
    List.filter
      (fun c -> String.starts_with ~prefix:"open_" c.Suite.name)
      pinned
  in
  Alcotest.(check int) "four open-arrival cells" 4 (List.length open_cells);
  List.iter
    (fun r ->
      Alcotest.(check string) (r.Suite.b_name ^ " at --shards 2")
        (List.assoc r.Suite.b_name pins) r.Suite.b_digest)
    (run_rows ~shards:2 ~jobs:1 open_cells)

(* Full row equality (names, digests, tallies, rendered lines) between
   serial and sharded runs of every [stride]-th cell of a family. *)
let check_rows_jobs_invariant family ~stride =
  let cells =
    List.filteri (fun i _ -> i mod stride = 0) (Suite.cells_of family)
  in
  let serial = run_rows ~jobs:1 cells and sharded = run_rows ~jobs:4 cells in
  Alcotest.(check int) "same cell count" (List.length serial)
    (List.length sharded);
  List.iter2
    (fun (a : Suite.row) (b : Suite.row) ->
      let name = a.Suite.b_name in
      Alcotest.(check string) ("cell name: " ^ name) name b.Suite.b_name;
      Alcotest.(check string) ("cell digest: " ^ name) a.Suite.b_digest
        b.Suite.b_digest;
      Alcotest.(check (list (pair string int))) ("cell tallies: " ^ name)
        a.Suite.b_counters b.Suite.b_counters;
      Alcotest.(check (float 0.)) ("cell metric: " ^ name) a.Suite.b_metric
        b.Suite.b_metric;
      Alcotest.(check string) ("cell line: " ^ name) a.Suite.line b.Suite.line)
    serial sharded;
  serial

(* Fault-injection matrix cross-section.  Stride 7 keeps 7 of the 43
   cells: both schedules, both placements, four of the five primitives
   (not urpc) and the netpipe cell; each carries its run and fault
   counts. *)
let test_matrix_cells_jobs_invariant () =
  List.iter
    (fun r ->
      let tally k = List.assoc k r.Suite.b_counters in
      Alcotest.(check bool) ("cell runs: " ^ r.Suite.b_name) true
        (tally "runs" > 0);
      Alcotest.(check bool) ("cell faults: " ^ r.Suite.b_name) true
        (tally "faults" >= 0))
    (check_rows_jobs_invariant Suite.Matrix ~stride:7)

(* Posture-matrix cross-section: stride 5 keeps 4 of the 18 cells,
   spanning all three backends, all three postures and both loads. *)
let test_security_cells_jobs_invariant () =
  Alcotest.(check int) "sampled cells" 4
    (List.length (check_rows_jobs_invariant Suite.Security ~stride:5))

(* Open-sweep cross-section: stride 6 keeps 6 of the 35 cells of each
   arrival process, spanning all five primitives and six of the seven
   loads. *)
let test_open_sweep_cells_jobs_invariant () =
  List.iter
    (fun arrival ->
      Alcotest.(check int) "sampled cells" 6
        (List.length
           (check_rows_jobs_invariant (Suite.Open arrival) ~stride:6)))
    Suite.OL.[ Poisson; Bursty; Diurnal ]

(* --- qcheck domain-safety stress --- *)

(* Random workloads sharded at a random job count, run twice: the digest
   vector must be stable.  This is the property that caught the global
   proxy-template cache and the [lazy] cost memo during the audit: any
   cross-run shared mutable state shifts a digest under concurrency. *)
let qcheck_stress =
  let open QCheck in
  let prim_gen =
    Gen.oneofl [ M.Sem; M.Pipe; M.L4; M.Local_rpc; M.User_rpc_prim ]
  in
  let cell_gen =
    Gen.map3
      (fun prim seed same_cpu -> (prim, seed, same_cpu))
      prim_gen (Gen.int_range 0 1000) Gen.bool
  in
  let arb =
    make
      ~print:(fun (cells, jobs) ->
        Printf.sprintf "jobs=%d cells=[%s]" jobs
          (String.concat "; "
             (List.map
                (fun (p, s, c) ->
                  Printf.sprintf "%s seed=%d same_cpu=%b" (M.primitive_name p)
                    s c)
                cells)))
      Gen.(pair (list_size (int_range 2 6) cell_gen) (int_range 1 4))
  in
  QCheck.Test.make ~count:8 ~name:"sharded digests stable across reruns" arb
    (fun (cells, jobs) ->
      let tasks =
        Array.of_list
          (List.map
             (fun (prim, seed, same_cpu) ->
               ( Printf.sprintf "%s/%d" (M.primitive_name prim) seed,
                 fun () ->
                   let tr = Trace.create () in
                   let chk = Checker.create () in
                   Checker.attach chk tr;
                   let inj = Inject.create ~seed () in
                   let r =
                     M.run ~warmup:2 ~iters:5 ~trace:tr ~inject:inj ~same_cpu
                       prim
                   in
                   Checker.finish
                     ~quiescent:(prim <> M.L4)
                     ~expect:r.M.lifetime chk;
                   Checker.detach tr;
                   Trace.digest_hex tr ))
             cells)
      in
      let digests () =
        Array.to_list
          (Array.map (fun o -> o.Parallel.o_value) (Parallel.run ~jobs tasks))
      in
      digests () = digests ())

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "merge preserves submission order" `Quick
          test_merge_preserves_submission_order;
        Alcotest.test_case "jobs clamped to sane range" `Quick test_jobs_clamped;
        Alcotest.test_case "lowest-index exception wins" `Quick
          test_exception_propagates_lowest_index;
        Alcotest.test_case "per-run stats populated" `Quick
          test_per_run_stats_populated;
        Alcotest.test_case "suite digests invariant under --jobs" `Slow
          test_suite_digests_jobs_invariant;
        Alcotest.test_case "suite digests invariant under shuffle" `Slow
          test_suite_digests_shuffle_invariant;
        Alcotest.test_case "open cells invariant under --shards" `Quick
          test_open_cells_shards_invariant;
        Alcotest.test_case "security cells identical serial vs sharded" `Quick
          test_security_cells_jobs_invariant;
        Alcotest.test_case "open sweep cells identical serial vs sharded" `Quick
          test_open_sweep_cells_jobs_invariant;
        Alcotest.test_case "matrix cells identical serial vs sharded" `Slow
          test_matrix_cells_jobs_invariant;
        QCheck_alcotest.to_alcotest qcheck_stress;
      ] );
  ]
