(* Regression + property tests for the PR-7 tail-metric fixes and the
   open-arrival workload generator they unblock.

   Directed regressions pin the four stats-layer defects (histogram
   rank clamp, Stats polymorphic compare, negative rel_stddev, Rng
   modulo bias); qcheck properties cover the HDR histogram's algebra
   (merge associativity/commutativity vs a single-stream reference,
   <= 1% recorded-value error) and the openload determinism contract
   (same seed => same digest, at any job count). *)

module OL = Dipc_workloads.Openload
module Histogram = Dipc_sim.Histogram
module Stats = Dipc_sim.Stats
module Rng = Dipc_sim.Rng
module Parallel = Dipc_sim.Parallel

(* --- histogram rank clamp (bugfix #1) --- *)

(* Before the fix, any p whose rank rounded past the sample count fell
   off the cumulative walk and reported 0. — silently zeroing p999 on
   small runs and p100 everywhere. *)
let test_percentile_rank_clamp () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10.; 20.; 30. ];
  let p100 = Histogram.percentile h 100. in
  Alcotest.(check bool) "p100 is positive" true (p100 > 0.);
  Alcotest.(check (float 0.)) "p999 on 3 samples equals p100" p100
    (Histogram.percentile h 99.9);
  Alcotest.(check (float 0.)) "p > 100 clamps to the top rank" p100
    (Histogram.percentile h 150.);
  Alcotest.(check (float 0.)) "p < 0 clamps to the bottom rank"
    (Histogram.percentile h 0.)
    (Histogram.percentile h (-10.));
  Alcotest.(check bool) "p100 covers the max sample" true (p100 >= 30.)

let qcheck_percentile_never_zero_on_nonempty =
  QCheck.Test.make ~name:"histogram percentile never 0 on non-empty data"
    ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_range 1. 1e6))
              (float_range 0. 200.))
    (fun (xs, p) ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      Histogram.percentile h p > 0.)

(* --- histogram merge algebra (tentpole invariant) --- *)

let hist_of xs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) xs;
  h

let samples_gen = QCheck.(list_of_size Gen.(0 -- 60) (float_range 1. 1e9))

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"histogram merge is commutative (by digest)"
    ~count:200
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let ab = hist_of xs in
      Histogram.merge ~into:ab (hist_of ys);
      let ba = hist_of ys in
      Histogram.merge ~into:ba (hist_of xs);
      Histogram.digest_hex ab = Histogram.digest_hex ba)

let qcheck_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative (by digest)"
    ~count:200
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let left = hist_of xs in
      Histogram.merge ~into:left (hist_of ys);
      Histogram.merge ~into:left (hist_of zs);
      let bc = hist_of ys in
      Histogram.merge ~into:bc (hist_of zs);
      let right = hist_of xs in
      Histogram.merge ~into:right bc;
      Histogram.digest_hex left = Histogram.digest_hex right)

let qcheck_sharded_merge_equals_single_stream =
  QCheck.Test.make
    ~name:"sharded histograms merge to the single-stream reference"
    ~count:200
    QCheck.(pair samples_gen (int_range 1 7))
    (fun (xs, shards) ->
      (* Deal samples round-robin across [shards] histograms, merge, and
         compare against recording the whole stream into one: digest
         equality means bucket-exact.  No run merges histograms (the
         open sweeps' --jobs invariance rests on cells sharing no
         state); this pins [merge] for callers that shard a stream. *)
      let parts = Array.init shards (fun _ -> Histogram.create ()) in
      List.iteri (fun i x -> Histogram.add parts.(i mod shards) x) xs;
      let merged = Histogram.create () in
      Array.iter (fun p -> Histogram.merge ~into:merged p) parts;
      Histogram.digest_hex merged = Histogram.digest_hex (hist_of xs))

let qcheck_hist_relative_error =
  QCheck.Test.make ~name:"histogram resolution error <= 1% over 1ns..1s"
    ~count:500
    QCheck.(float_range 1. 1e9)
    (fun x ->
      let p = Histogram.percentile (hist_of [ x ]) 50. in
      Float.abs (p -. x) <= 0.01 *. x)

(* --- Stats fixes (bugfixes #2 and #3) --- *)

let nearest_rank xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  let rank = if rank < 1 then 1 else if rank > n then n else rank in
  a.(rank - 1)

let qcheck_stats_percentile_matches_reference =
  QCheck.Test.make
    ~name:"stats percentile matches the nearest-rank reference" ~count:300
    QCheck.(pair
              (list_of_size Gen.(1 -- 80) (float_range (-1e6) 1e6))
              (float_range 0. 100.))
    (fun (xs, p) ->
      (* Float.compare and polymorphic compare agree on non-NaN floats:
         the switch must be digest-neutral for every existing caller. *)
      Stats.percentile (Array.of_list xs) p = nearest_rank xs p)

let test_rel_stddev_negative_mean () =
  let t = Stats.create () in
  List.iter (Stats.add t) [ -10.; -20.; -30. ];
  Alcotest.(check bool) "mean is negative" true (Stats.mean t < 0.);
  Alcotest.(check bool) "rel_stddev is positive" true (Stats.rel_stddev t > 0.);
  (* Same spread around a positive mean: identical relative stddev. *)
  let u = Stats.create () in
  List.iter (Stats.add u) [ 10.; 20.; 30. ];
  Alcotest.(check (float 1e-12)) "sign of the mean does not matter"
    (Stats.rel_stddev u) (Stats.rel_stddev t)

(* --- Rng.int_unbiased (bugfix #4) --- *)

let qcheck_int_unbiased_in_range =
  QCheck.Test.make ~name:"rng int_unbiased stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int_unbiased r bound in
      0 <= v && v < bound)

let test_int_unbiased_deterministic () =
  let draws seed =
    let r = Rng.create ~seed in
    List.init 64 (fun _ -> Rng.int_unbiased r 1000)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draws 7) (draws 7);
  Alcotest.(check bool) "different seeds differ" true (draws 7 <> draws 8);
  let r = Rng.create ~seed:3 in
  Alcotest.(check int) "bound 1 is always 0" 0 (Rng.int_unbiased r 1);
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int_unbiased: bound must be positive") (fun () ->
      ignore (Rng.int_unbiased r 0))

let test_int_unbiased_covers_residues () =
  (* With 3000 draws of bound 7, every residue class appears; a
     rejection sampler must not starve any value. *)
  let r = Rng.create ~seed:11 in
  let seen = Array.make 7 0 in
  for _ = 1 to 3000 do
    let v = Rng.int_unbiased r 7 in
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "residue %d appears" i)
        true (c > 300))
    seen

(* --- openload determinism and sanity --- *)

let params ?(seed = 42) ?(sessions = 4_000) ?(load = 0.8)
    ?(arrival = OL.Poisson) () =
  OL.default_params ~seed ~sessions ~offered_load:load ~arrival
    ~service_ns:1_000. ()

let test_openload_deterministic () =
  List.iter
    (fun arrival ->
      let a = OL.run (params ~arrival ()) in
      let b = OL.run (params ~arrival ()) in
      Alcotest.(check string)
        (OL.arrival_name arrival ^ " same seed, same digest")
        a.OL.r_digest b.OL.r_digest;
      let c = OL.run (params ~arrival ~seed:43 ()) in
      Alcotest.(check bool)
        (OL.arrival_name arrival ^ " different seed, different digest")
        true
        (a.OL.r_digest <> c.OL.r_digest))
    [ OL.Poisson; OL.Bursty; OL.Diurnal ]

let test_openload_conservation () =
  let p = params ~sessions:5_000 () in
  let r = OL.run p in
  Alcotest.(check int) "every session admitted" 5_000 r.OL.r_sessions;
  Alcotest.(check bool) "at least one request per session" true
    (r.OL.r_requests >= 5_000);
  Alcotest.(check bool) "at most 1 + max_extra per session" true
    (r.OL.r_requests <= 5_000 * (1 + p.OL.max_extra_reqs));
  Alcotest.(check int) "histogram holds every request" r.OL.r_requests
    (Histogram.count r.OL.r_latency);
  let u = OL.utilization r ~servers:p.OL.servers in
  Alcotest.(check bool) "utilization in (0, 1]" true (0. < u && u <= 1.)

(* The sweep contract: one digest per (cell) independent of the job
   count — the same Parallel.run shape `dipc_cli suite --open` uses. *)
let test_openload_jobs_invariant () =
  let cells =
    Array.of_list
      (List.concat_map
         (fun load ->
           List.map
             (fun arrival ->
               ( Printf.sprintf "%s/%.2f" (OL.arrival_name arrival) load,
                 fun () ->
                   (OL.run (params ~sessions:2_000 ~load ~arrival ()))
                     .OL.r_digest ))
             [ OL.Poisson; OL.Bursty; OL.Diurnal ])
         [ 0.5; 0.9; 1.1 ])
  in
  let digests jobs =
    Array.to_list
      (Array.map (fun o -> o.Parallel.o_value) (Parallel.run ~jobs cells))
  in
  Alcotest.(check (list string)) "digests at --jobs 4 match --jobs 1"
    (digests 1) (digests 4)

(* Digests of [OL.run] captured before the station went allocation-free
   and began serving admissions without a heap round trip: a change to
   the loop, the generators or the digest that moves the timeline moves
   these pins. *)
let pinned_params ?(arrival = OL.Poisson) ?think_ns ?max_extra_reqs ?servers
    () =
  OL.default_params ~seed:42 ~sessions:20_000 ~offered_load:0.95 ~arrival
    ?think_ns ?max_extra_reqs ?servers ~service_ns:4000. ()

let pinned_cells =
  [
    ("poisson", pinned_params (), "8606cb78c6eb43fc");
    ("bursty", pinned_params ~arrival:OL.Bursty (), "45f1c0003a1ce105");
    ( "diurnal, think 0, extra 3",
      pinned_params ~arrival:OL.Diurnal ~think_ns:0. ~max_extra_reqs:3 (),
      "4ec1788665dddafc" );
    ( "poisson, think 0, extra 0",
      pinned_params ~think_ns:0. ~max_extra_reqs:0 (),
      "8a5a7500a862f158" );
    (* Captured before the server pick went branch-free: one server
       never picks, and 3 and 7 exercise odd widths of the scan. *)
    ("poisson, 1 server", pinned_params ~servers:1 (), "55cb9e7808fb76ca");
    ( "bursty, 3 servers",
      pinned_params ~arrival:OL.Bursty ~servers:3 (),
      "8d2d8734ce7b2c1d" );
    ( "diurnal, 7 servers",
      pinned_params ~arrival:OL.Diurnal ~servers:7 (),
      "ab9dfefb8f81eaa6" );
  ]

let test_openload_pinned_digests () =
  List.iter
    (fun (name, p, want) ->
      Alcotest.(check string) name want (OL.run p).OL.r_digest)
    pinned_cells

(* Neither the generator/queue loop nor any arrival process allocates
   per request or per session: what is left is the run's fixed set-up
   (streams, histogram, result) and the heap's amortised growth. *)
let test_openload_allocation () =
  List.iter
    (fun arrival ->
      let p = pinned_params ~arrival () in
      let w0 = Gc.minor_words () in
      let r = OL.run p in
      let words = Gc.minor_words () -. w0 in
      let per_req = words /. float_of_int r.OL.r_requests in
      if per_req > 0.1 then
        Alcotest.failf "%s: %.3f minor words per request (bound 0.1)"
          (OL.arrival_name arrival) per_req)
    [ OL.Poisson; OL.Bursty; OL.Diurnal ]

let test_saturation_knee () =
  Alcotest.(check (option (float 0.))) "knee at the first 3x blowup"
    (Some 0.95)
    (OL.saturation_knee
       [ (0.3, 100.); (0.7, 150.); (0.95, 400.); (1.1, 9000.) ]);
  Alcotest.(check (option (float 0.))) "no knee below 3x" None
    (OL.saturation_knee [ (0.3, 100.); (0.7, 150.); (0.95, 299.) ]);
  Alcotest.(check (option (float 0.))) "empty sweep has no knee" None
    (OL.saturation_knee [])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "openload.stats-fixes",
      [
        Alcotest.test_case "histogram rank clamp" `Quick
          test_percentile_rank_clamp;
        Alcotest.test_case "rel_stddev under a negative mean" `Quick
          test_rel_stddev_negative_mean;
        Alcotest.test_case "int_unbiased deterministic" `Quick
          test_int_unbiased_deterministic;
        Alcotest.test_case "int_unbiased covers residues" `Quick
          test_int_unbiased_covers_residues;
      ]
      @ qsuite
          [
            qcheck_percentile_never_zero_on_nonempty;
            qcheck_stats_percentile_matches_reference;
            qcheck_int_unbiased_in_range;
          ] );
    ( "openload.histogram",
      qsuite
        [
          qcheck_merge_commutative;
          qcheck_merge_associative;
          qcheck_sharded_merge_equals_single_stream;
          qcheck_hist_relative_error;
        ] );
    ( "openload.generator",
      [
        Alcotest.test_case "deterministic per arrival process" `Quick
          test_openload_deterministic;
        Alcotest.test_case "request conservation" `Quick
          test_openload_conservation;
        Alcotest.test_case "digests invariant under --jobs" `Quick
          test_openload_jobs_invariant;
        Alcotest.test_case "saturation knee" `Quick test_saturation_knee;
        Alcotest.test_case "pinned digests" `Quick
          test_openload_pinned_digests;
        Alcotest.test_case "allocation per request" `Quick
          test_openload_allocation;
      ] );
  ]
