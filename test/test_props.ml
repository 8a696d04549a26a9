(* Property tests (qcheck) for the simulation substrate primitives the
   fault injector and checker lean on: Rng.split stream independence,
   Histogram bucket boundaries, and Stats against straightforward float
   references. *)

module Rng = Dipc_sim.Rng
module Histogram = Dipc_sim.Histogram
module Stats = Dipc_sim.Stats

(* --- Rng.split: determinism, divergence, designed parent advance --- *)

let draws rng n = List.init n (fun _ -> Rng.next_int64 rng)

let qcheck_split_deterministic =
  QCheck.Test.make ~name:"rng split is deterministic in the seed" ~count:100
    QCheck.small_int
    (fun seed ->
      let a = Rng.create ~seed in
      let b = Rng.create ~seed in
      let ca = Rng.split a and cb = Rng.split b in
      draws ca 8 = draws cb 8 && draws a 8 = draws b 8)

let qcheck_split_diverges =
  QCheck.Test.make ~name:"rng split child shares no draws with parent"
    ~count:100 QCheck.small_int
    (fun seed ->
      let p = Rng.create ~seed in
      let c = Rng.split p in
      (* 16 consecutive 64-bit draws colliding would be astronomically
         unlikely for a correct split. *)
      draws p 16 <> draws c 16)

let qcheck_split_advances_parent_by_one =
  QCheck.Test.make ~name:"rng split advances the parent by one draw"
    ~count:100 QCheck.small_int
    (fun seed ->
      let a = Rng.create ~seed in
      let b = Rng.copy a in
      ignore (Rng.next_int64 b);
      ignore (Rng.split a);
      draws a 8 = draws b 8)

let qcheck_split_position_matters =
  QCheck.Test.make ~name:"rng splits at different positions differ" ~count:100
    QCheck.small_int
    (fun seed ->
      let a = Rng.create ~seed in
      let c0 = Rng.split a in
      let c1 = Rng.split a in
      draws c0 8 <> draws c1 8)

(* --- Rng: the splitmix64 stream and its allocation, pinned ---

   Expected values were captured from the original boxed-[int64]
   representation: a change of representation must leave every stream
   bit-identical, including split children and mid-stream copies. *)

let pinned_streams =
  [
    ( "seed 0",
      (fun () -> Rng.create ~seed:0),
      [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
        0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
        0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ] );
    ( "split of seed 0",
      (fun () -> Rng.split (Rng.create ~seed:0)),
      [ 0xa706dd2f4d197e6fL; 0xb382a305f4414f5eL; 0x631a9154fbabf717L;
        0xa80aba8c86640906L; 0xc9b5ae106698f0bbL; 0x256fa269a2420ea1L;
        0xc755bbac848bcebeL; 0x43dec8be6926a4deL ] );
    ( "copy of seed 0 after 5 draws",
      (fun () ->
        let r = Rng.create ~seed:0 in
        for _ = 1 to 5 do ignore (Rng.next_int64 r) done;
        let c = Rng.copy r in
        (* the original advancing must not move the copy *)
        ignore (Rng.next_int64 r);
        c),
      [ 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL;
        0x3ee5789041c98ac3L; 0xf3b8488c368cb0a6L; 0x657eecdd3cb13d09L;
        0xc2d326e0055bdef6L; 0x8621a03fe0bbdb7bL ] );
    ( "seed 42",
      (fun () -> Rng.create ~seed:42),
      [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
        0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L;
        0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ] );
    ( "split of seed 42",
      (fun () -> Rng.split (Rng.create ~seed:42)),
      [ 0x57e1faba65107204L; 0xf4abd143feb24055L; 0x7c816738c12903b2L;
        0x113e5dec6f8fd8a8L; 0xad4a599062fd1739L; 0x11485b98a7ea20b7L;
        0x32028f50341ebd74L; 0xbc16a3d4cc48678eL ] );
    ( "copy of seed 42 after 5 draws",
      (fun () ->
        let r = Rng.create ~seed:42 in
        for _ = 1 to 5 do ignore (Rng.next_int64 r) done;
        let c = Rng.copy r in
        ignore (Rng.next_int64 r);
        c),
      [ 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L;
        0x5705b8770b3d7dd5L; 0x9e54d738297f77aeL; 0x3474724a775b19bfL;
        0x7e348a0e451650beL; 0x836ded897f3e46e6L ] );
  ]

let test_rng_pinned_streams () =
  List.iter
    (fun (name, make, want) ->
      Alcotest.(check (list int64)) name want (draws (make ()) 8))
    pinned_streams

(* The draws the simulator makes per request must not allocate: the
   results are folded into a float slot and an int, never boxed. *)
let test_rng_allocation_free () =
  let r = Rng.create ~seed:7 in
  let sum = Float.Array.make 1 0. in
  let mix = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Float.Array.unsafe_set sum 0
      (Float.Array.unsafe_get sum 0 +. Rng.exponential r ~mean:1.);
    mix := !mix + Rng.int_unbiased r 7;
    mix := !mix lxor Int64.to_int (Rng.next_int64 r)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 100,000 draws of each" 0.
    words;
  Alcotest.(check bool) "draws were consumed" true
    (Float.Array.get sum 0 > 0. && !mix <> 0)

(* --- Histogram: HDR resolution bound, via the public percentile --- *)

let singleton x =
  let h = Histogram.create () in
  Histogram.add h x;
  h

let qcheck_hist_relative_error_bound =
  QCheck.Test.make ~name:"histogram recovers any sample within 1%" ~count:300
    QCheck.(float_range 1. 1e9)
    (fun x ->
      (* A singleton's percentile lies inside the sample's bucket, whose
         width is <= 1/128 of its lower bound. *)
      let p = Histogram.percentile (singleton x) 50. in
      Float.abs (p -. x) <= 0.01 *. x)

let qcheck_hist_power_of_two_resolution =
  QCheck.Test.make
    ~name:"histogram keeps 1% resolution at power-of-two boundaries"
    ~count:100
    QCheck.(int_range 1 30)
    (fun k ->
      let b = 2. ** float_of_int k in
      (* The old layout collapsed [2^(k-1), 2^k) into one bucket; the
         HDR sub-buckets must distinguish either side of the boundary. *)
      let above = Histogram.percentile (singleton b) 50. in
      let below = Histogram.percentile (singleton (b *. 0.99)) 50. in
      Float.abs (above -. b) <= 0.01 *. b
      && Float.abs (below -. (b *. 0.99)) <= 0.01 *. b
      && below < above)

let test_hist_clamps () =
  let p50 x = Histogram.percentile (singleton x) 50. in
  Alcotest.(check (float 0.)) "negative samples land with zero" (p50 0.)
    (p50 (-5.));
  Alcotest.(check (float 0.)) "NaN samples land with zero" (p50 0.)
    (p50 Float.nan);
  Alcotest.(check (float 0.)) "huge samples clamp to the last bucket"
    (p50 1e18) (p50 1e20);
  Alcotest.(check (float 0.)) "empty histogram reports 0" 0.
    (Histogram.percentile (Histogram.create ()) 50.)

let qcheck_hist_percentile_monotone_in_samples =
  QCheck.Test.make ~name:"histogram p100 bounds every sample" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range 1. 1e9))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let top = Histogram.percentile h 100. in
      let mx = List.fold_left Float.max 0. xs in
      (* p100 is the upper edge of the max sample's bucket: at or above
         every sample, within 1% of the maximum. *)
      List.for_all (fun x -> x <= top) xs && top <= 1.01 *. mx)

(* --- Stats: Welford accumulator and nearest-rank percentile vs plain
       float references --- *)

let close ~scale a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. scale

let qcheck_stats_mean_matches_naive_sum =
  QCheck.Test.make ~name:"stats mean matches the naive sum" ~count:300
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1e9))
    (fun xs ->
      let t = Stats.create () in
      List.iter (Stats.add t) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      close ~scale:naive (Stats.mean t) naive)

let qcheck_stats_variance_matches_two_pass =
  QCheck.Test.make ~name:"stats variance matches the two-pass reference"
    ~count:300
    QCheck.(list_of_size Gen.(2 -- 100) (float_bound_exclusive 1e6))
    (fun xs ->
      let t = Stats.create () in
      List.iter (Stats.add t) xs;
      let n = float_of_int (List.length xs) in
      let m = List.fold_left ( +. ) 0. xs /. n in
      let ref_var =
        List.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs
        /. (n -. 1.)
      in
      close ~scale:ref_var (Stats.variance t) ref_var)

let qcheck_stats_percentile_matches_reference =
  QCheck.Test.make ~name:"stats percentile is nearest-rank of the sorted array"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 80) (float_bound_exclusive 1e9))
        (float_range 0. 100.))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      let rank = if rank < 1 then 1 else if rank > n then n else rank in
      Stats.percentile a p = sorted.(rank - 1))

let qcheck_stats_percentile_bounds =
  QCheck.Test.make ~name:"stats p0/p100 are min/max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 80) (float_bound_exclusive 1e9))
    (fun xs ->
      let a = Array.of_list xs in
      let t = Stats.create () in
      List.iter (Stats.add t) xs;
      Stats.percentile a 0. = Stats.min_value t
      && Stats.percentile a 100. = Stats.max_value t)

let suites =
  [
    ( "props.rng",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_split_deterministic;
          qcheck_split_diverges;
          qcheck_split_advances_parent_by_one;
          qcheck_split_position_matters;
        ]
      @ [
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_allocation_free;
        ] );
    ( "props.histogram",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_hist_relative_error_bound;
          qcheck_hist_power_of_two_resolution;
          qcheck_hist_percentile_monotone_in_samples;
        ]
      @ [ Alcotest.test_case "bucket clamps" `Quick test_hist_clamps ] );
    ( "props.stats",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_stats_mean_matches_naive_sum;
          qcheck_stats_variance_matches_two_pass;
          qcheck_stats_percentile_matches_reference;
          qcheck_stats_percentile_bounds;
        ] );
  ]
