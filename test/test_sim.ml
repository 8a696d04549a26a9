(* Tests for the simulation substrate: event heap, RNG, statistics,
   breakdown accounting, memory cost model, and the effect-handler
   discrete-event engine. *)

module Heap = Dipc_sim.Heap
module Rng = Dipc_sim.Rng
module Stats = Dipc_sim.Stats
module Breakdown = Dipc_sim.Breakdown
module Memcost = Dipc_sim.Memcost
module Engine = Dipc_sim.Engine
module Histogram = Dipc_sim.Histogram
module Trace = Dipc_sim.Trace

let check_float = Alcotest.(check (float 1e-9))

let checkf msg ~expected ~tolerance actual =
  if Float.abs (actual -. expected) > tolerance then
    Alcotest.failf "%s: expected %f +- %f, got %f" msg expected tolerance actual

(* --- heap --- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.push h ~time:t t) [ 5.; 1.; 3.; 2.; 4. ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.)))
    "sorted" [ 1.; 2.; 3.; 4.; 5. ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:1. v) [ "a"; "b"; "c" ];
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "insertion order at equal times"
    [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  (* [top_time] refuses an empty heap; callers guard it with
     [is_empty]. *)
  Alcotest.(check bool) "nothing to peek" true (Heap.is_empty h);
  Alcotest.check_raises "top_time on empty"
    (Invalid_argument "Heap.top_time: empty heap") (fun () ->
      ignore (Heap.top_time h))

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_exclusive 1e6))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (t, ()) -> t >= prev && drain t
      in
      drain neg_infinity)

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.float a = Rng.float b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:100 QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let f = Rng.float r in
        if f < 0. || f >= 1. then ok := false
      done;
      !ok)

(* [Rng.float] scales the top 53 bits by 0x1p-53; the division by 2^53
   it replaced is the reference, bit for bit, so no simulated draw
   moved. *)
let prop_rng_float_matches_division =
  QCheck.Test.make ~name:"rng float is bit-equal to the division form"
    ~count:200 QCheck.int
    (fun seed ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let copy = Rng.copy r in
        let want =
          Int64.to_float (Int64.shift_right_logical (Rng.next_int64 copy) 11)
          /. 9007199254740992.0
        in
        if Int64.bits_of_float (Rng.float r) <> Int64.bits_of_float want then
          ok := false
      done;
      !ok)

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int in [0,bound)" ~count:100
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:7 in
  let acc = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:100.
  done;
  checkf "exponential mean" ~expected:100. ~tolerance:3. (!acc /. float_of_int n)

(* --- stats --- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  check_float "mean" 3. (Stats.mean s);
  check_float "min" 1. (Stats.min_value s);
  check_float "max" 5. (Stats.max_value s);
  checkf "stddev" ~expected:(sqrt 2.5) ~tolerance:1e-9 (Stats.stddev s);
  Alcotest.(check int) "count" 5 (Stats.count s)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean of empty" 0. (Stats.mean s);
  check_float "stddev of empty" 0. (Stats.stddev s)

let test_stats_percentile () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50. (Stats.percentile samples 50.);
  check_float "p99" 99. (Stats.percentile samples 99.);
  check_float "p100" 100. (Stats.percentile samples 100.)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1e6))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min_value s -. 1e-6
      && Stats.mean s <= Stats.max_value s +. 1e-6)

(* --- breakdown --- *)

let test_breakdown_charge () =
  let b = Breakdown.create () in
  Breakdown.charge b Breakdown.User_code 10.;
  Breakdown.charge b Breakdown.Kernel 5.;
  Breakdown.charge b Breakdown.User_code 2.;
  check_float "user" 12. (Breakdown.get b Breakdown.User_code);
  check_float "total" 17. (Breakdown.total b)

let test_breakdown_merge_scale () =
  let a = Breakdown.create () and b = Breakdown.create () in
  Breakdown.charge a Breakdown.Idle 4.;
  Breakdown.charge b Breakdown.Idle 6.;
  Breakdown.merge ~into:a b;
  check_float "merged" 10. (Breakdown.get a Breakdown.Idle);
  let half = Breakdown.scale a 0.5 in
  check_float "scaled" 5. (Breakdown.get half Breakdown.Idle)

let test_breakdown_figure2_folding () =
  let b = Breakdown.create () in
  Breakdown.charge b Breakdown.Proxy 7.;
  Breakdown.charge b Breakdown.Stub 3.;
  Breakdown.charge b Breakdown.Kernel 1.;
  let f = Breakdown.to_figure2 b in
  check_float "proxy folds into kernel" 8. (Breakdown.get f Breakdown.Kernel);
  check_float "stub folds into user" 3. (Breakdown.get f Breakdown.User_code);
  check_float "proxy cleared" 0. (Breakdown.get f Breakdown.Proxy);
  check_float "total preserved" (Breakdown.total b) (Breakdown.total f)

(* A breakdown built from an arbitrary list of (category, ns) charges. *)
let breakdown_of charges =
  let b = Breakdown.create () in
  List.iter
    (fun (i, ns) -> Breakdown.charge b (List.nth Breakdown.all_categories i) ns)
    charges;
  b

let charges_gen =
  QCheck.(list_of_size Gen.(0 -- 30) (pair (int_range 0 8) (float_bound_exclusive 1e9)))

let breakdown_close a b =
  List.for_all
    (fun c ->
      let x = Breakdown.get a c and y = Breakdown.get b c in
      Float.abs (x -. y) <= 1e-6 *. (1. +. Float.abs x))
    Breakdown.all_categories

let prop_breakdown_merge_commutative =
  QCheck.Test.make ~name:"breakdown merge is commutative" ~count:200
    QCheck.(pair charges_gen charges_gen)
    (fun (xs, ys) ->
      let ab = breakdown_of xs and ba = breakdown_of ys in
      Breakdown.merge ~into:ab (breakdown_of ys);
      Breakdown.merge ~into:ba (breakdown_of xs);
      breakdown_close ab ba)

let prop_breakdown_merge_associative =
  QCheck.Test.make ~name:"breakdown merge is associative" ~count:200
    QCheck.(triple charges_gen charges_gen charges_gen)
    (fun (xs, ys, zs) ->
      (* (a + b) + c *)
      let left = breakdown_of xs in
      Breakdown.merge ~into:left (breakdown_of ys);
      Breakdown.merge ~into:left (breakdown_of zs);
      (* a + (b + c) *)
      let bc = breakdown_of ys in
      Breakdown.merge ~into:bc (breakdown_of zs);
      let right = breakdown_of xs in
      Breakdown.merge ~into:right bc;
      breakdown_close left right)

let prop_breakdown_scale_identity =
  QCheck.Test.make ~name:"breakdown scale 1.0 is the identity" ~count:200
    charges_gen
    (fun xs ->
      let b = breakdown_of xs in
      breakdown_close b (Breakdown.scale b 1.0))

let prop_breakdown_total_is_sum =
  QCheck.Test.make ~name:"breakdown total = sum of get over all categories"
    ~count:200 charges_gen
    (fun xs ->
      let b = breakdown_of xs in
      let sum =
        List.fold_left (fun acc c -> acc +. Breakdown.get b c) 0.
          Breakdown.all_categories
      in
      Float.abs (Breakdown.total b -. sum) <= 1e-6 *. (1. +. Float.abs sum))

(* --- memcost --- *)

let test_memcost_monotone () =
  let prev = ref 0. in
  List.iter
    (fun b ->
      let c = Memcost.user_copy b in
      Alcotest.(check bool) "copy cost grows" true (c > !prev);
      prev := c)
    [ 64; 1024; 32 * 1024; 256 * 1024; 1024 * 1024 ]

let test_memcost_cache_kinks () =
  (* Per-byte cost steps up when the footprint spills L1 and then L2. *)
  let per_byte b = Memcost.write_buffer b /. float_of_int b in
  Alcotest.(check bool) "L1 < L2 rate" true (per_byte 1024 < per_byte (128 * 1024));
  Alcotest.(check bool) "L2 < mem rate" true
    (per_byte (128 * 1024) < per_byte (4 * 1024 * 1024))

let test_memcost_kernel_copy_page_checks () =
  (* Kernel copies add per-page costs over a user copy. *)
  let bytes = 8 * 4096 in
  Alcotest.(check bool) "kernel copy slower" true
    (Memcost.kernel_copy bytes > Memcost.user_copy bytes)

(* --- engine --- *)

let test_engine_delay_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay e 10.;
      log := ("a", Engine.now e) :: !log);
  Engine.spawn e (fun () ->
      Engine.delay e 5.;
      log := ("b", Engine.now e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.))))
    "order and times"
    [ ("b", 5.); ("a", 10.) ]
    (List.rev !log)

(* A parked thread resumes where it parked, at its waker's time, and
   reads the value the waker left beside its handle. *)
let test_engine_suspend_resume () =
  let e = Engine.create () in
  let slot = ref None and gift = ref 0 in
  let got = ref (-1) and woke_at = ref (-1.) in
  Engine.spawn e (fun () ->
      slot := Some (Engine.parker ());
      Engine.park ();
      got := !gift;
      woke_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.delay e 3.;
      match !slot with
      | Some p ->
          gift := 42;
          Engine.unpark p
      | None -> ());
  Engine.run e;
  Alcotest.(check int) "value delivered" 42 !got;
  check_float "resumed at the waker's time" 3. !woke_at

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.spawn e (fun () ->
      Engine.delay e 10.;
      incr fired;
      Engine.delay e 10.;
      incr fired);
  Engine.run_until e 15.;
  Alcotest.(check int) "only first event" 1 !fired;
  check_float "clock at deadline" 15. (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest continues" 2 !fired

(* --- run loop semantics under the direct handoff --- *)

(* A mixed, traced workload: workers on the slow and fast delay paths
   that spawn short children, three waiters parked on a FIFO queue of
   park handles and a thread broadcasting to it.  It runs past
   t = 1000, so a run to that deadline leaves events queued. *)
let mixed_engine () =
  let e = Engine.create () in
  let tr = Trace.create () in
  Engine.set_trace e tr;
  let rng = Rng.create ~seed:7 in
  let q = Queue.create () in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        for i = 1 to 300 do
          let d = Rng.float rng *. 10. in
          if i mod 3 = 0 then Engine.delay_in e d else Engine.delay e d;
          if i mod 50 = 0 then Engine.spawn e (fun () -> Engine.delay e 1.)
        done)
  done;
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        let self = Engine.parker () in
        for _ = 1 to 100 do
          Queue.add self q;
          Engine.park ()
        done)
  done;
  Engine.spawn e (fun () ->
      for _ = 1 to 400 do
        Engine.delay e 3.;
        while not (Queue.is_empty q) do
          Engine.unpark (Queue.take q)
        done
      done);
  (e, tr)

(* Everything the run loop leaves behind, [now] printed exactly. *)
let engine_state (e, tr) =
  Printf.sprintf "steps %d, now %.17g, pending %d, digest %s" (Engine.steps e)
    (Engine.now e) (Engine.pending e) (Trace.digest_hex tr)

(* The benchmark times OLTP in 32 [run_until] slices: slicing must not
   change what runs, when, or in which order. *)
let test_engine_run_until_slices () =
  let whole = mixed_engine () in
  Engine.run_until (fst whole) 1000.;
  let sliced = mixed_engine () in
  for i = 1 to 32 do
    Engine.run_until (fst sliced) (1000. *. float i /. 32.)
  done;
  let check = Alcotest.(check string) in
  check "at the deadline" (engine_state whole) (engine_state sliced);
  Alcotest.(check bool) "events left queued" true (Engine.pending (fst whole) > 0);
  Engine.run (fst whole);
  Engine.run (fst sliced);
  check "drained" (engine_state whole) (engine_state sliced);
  (* the figures of the loop without the handoff *)
  check "pinned" "steps 1956, now 1521.5345396117725, pending 0, digest fafa2965e64774da"
    (engine_state sliced);
  Alcotest.(check int) "every thread finished" 0 (Engine.live (fst sliced))

(* The loop raises when it pops event n + 1, leaving the queue and the
   clock as the loop without the handoff left them. *)
let test_engine_step_limit () =
  let ((e, _) as run) = mixed_engine () in
  Engine.set_step_limit e 1000;
  Alcotest.check_raises "limit" Engine.Step_limit_exceeded (fun () -> Engine.run e);
  Alcotest.(check string)
    "state" "steps 1001, now 593.14824236868344, pending 4, digest 08614cf513cdd6e6"
    (engine_state run)

(* A thread resumed by another thread's handoff raises: the exception
   escapes [run] with the thread counted finished, and the engine keeps
   working. *)
let test_engine_exception_through_handoff () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Engine.delay e 1.;
      failwith "boom");
  (* Parks at 0.5 and 1.5 on the slow path: its handler fires the
     raising thread's wakeup at 1. *)
  Engine.spawn e (fun () ->
      Engine.delay e 0.5;
      Engine.delay e 1.);
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run e);
  Alcotest.(check int) "raiser finished" 1 (Engine.live e);
  check_float "clock at the raise" 1. (Engine.now e);
  Alcotest.(check int) "other thread still queued" 1 (Engine.pending e);
  Engine.run e;
  check_float "other thread ran on" 1.5 (Engine.now e);
  let later = ref false in
  Engine.spawn e (fun () ->
      Engine.delay e 2.;
      later := true);
  Engine.run e;
  Alcotest.(check bool) "a later run works" true !later;
  Alcotest.(check int) "no thread left" 0 (Engine.live e);
  Alcotest.(check int) "steps" 7 (Engine.steps e)

(* A thread unparking another just before it parks itself: the woken
   thread is queued at [now] behind what was already due, exactly as
   when the run loop fired the events. *)
let test_engine_unpark_then_park () =
  let e = Engine.create () in
  let log = ref [] in
  let say s = log := s :: !log in
  let parked_a = ref None and parked_b = ref None in
  let msg_a = ref "" and msg_b = ref "" in
  Engine.spawn e (fun () ->
      parked_a := Some (Engine.parker ());
      Engine.park ();
      say !msg_a);
  Engine.spawn ~at:1. e (fun () ->
      say "b parks";
      parked_b := Some (Engine.parker ());
      msg_a := "a woken by b";
      Option.iter Engine.unpark !parked_a;
      Engine.park ();
      say !msg_b);
  Engine.spawn ~at:1. e (fun () ->
      say "c runs";
      Engine.delay e 0.5;
      say "c after delay";
      msg_b := "b woken by c";
      Option.iter Engine.unpark !parked_b);
  Engine.schedule e ~at:1. (fun () -> say "raw event");
  Engine.run e;
  Alcotest.(check (list string))
    "order"
    [ "b parks"; "c runs"; "raw event"; "a woken by b"; "c after delay"; "b woken by c" ]
    (List.rev !log)

(* --- engine allocation guards ---

   Measured with [Gc.minor_words], as the machine's per-instruction
   bound in test_blocks.ml is.  A slow-path delay queues the thread's
   own [Resume] cell, built at its first delay, so what it allocates is
   the runtime's continuation (2 words) and nothing of the engine's; a
   closure, a boxed wake time or a fresh event block per delay fails
   the bound. *)

(* Four threads a quarter tick apart, each delaying one tick: the next
   thread is always due first, so every delay takes the effect path. *)
let test_engine_delay_allocation () =
  let e = Engine.create () in
  let rounds = 50_000 in
  for i = 0 to 3 do
    Engine.spawn ~at:(0.25 *. float_of_int i) e (fun () ->
        for _ = 1 to rounds do
          Engine.delay_in e 1.
        done)
  done;
  (* Past the spawns and every thread's first delay. *)
  Engine.run_until e 10.;
  let steps0 = Engine.steps e and w0 = Gc.minor_words () in
  Engine.run e;
  let words = Gc.minor_words () -. w0 in
  let events = Engine.steps e - steps0 in
  Alcotest.(check int) "every delay queued" (4 + (4 * rounds))
    (fst (Engine.queue_pushes e));
  let per_event = words /. float_of_int events in
  if per_event > 2.5 then
    Alcotest.failf "%.0f minor words over %d slow-path delays (%.2f per event, bound 2.5)"
      words events per_event

(* [Engine.delay] always takes the slow path; on the bench's
   engine_timerstorm shape (50 threads, 10,000 delays of 1-7 ns each)
   every delay queues and each allocates only its continuation.  A
   delay that performs an effect carrying its duration boxes the float
   and the effect block on top: ~7 words per event. *)
let test_engine_delay_effect_allocation () =
  let e = Engine.create () in
  for i = 0 to 49 do
    Engine.spawn e (fun () ->
        for _ = 1 to 10_000 do
          Engine.delay e (float_of_int (1 + (i mod 7)))
        done)
  done;
  let w0 = Gc.minor_words () in
  Engine.run e;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every event fired" 500_050 (Engine.steps e);
  let per_event = words /. float_of_int (Engine.steps e) in
  if per_event > 2.5 then
    Alcotest.failf "%.0f minor words over %d events (%.2f per event, bound 2.5)" words
      (Engine.steps e) per_event

(* One thread parks in a loop, its handle stored once in a ref; the
   other delays a tick (on the slow path: the wakeup it queued last is
   due first) and unparks it; an unpark of a thread not parked raises
   out of [run].  Each park and each delay allocates its continuation
   (2 words per event); a closure or an event block per park or unpark
   fails the bound. *)
let test_engine_park_allocation () =
  let e = Engine.create () in
  let rounds = 50_000 in
  let parked = ref None in
  Engine.spawn e (fun () ->
      parked := Some (Engine.parker ());
      for _ = 1 to rounds + 1 do
        Engine.park ()
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to rounds + 1 do
        Engine.delay_in e 1.;
        match !parked with
        | Some p -> Engine.unpark p
        | None -> Alcotest.fail "nothing parked"
      done);
  (* Past the spawns and the first round trip. *)
  Engine.run_until e 1.5;
  let steps0 = Engine.steps e and w0 = Gc.minor_words () in
  Engine.run e;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every thread finished" 0 (Engine.live e);
  let events = Engine.steps e - steps0 in
  let per_event = words /. float_of_int events in
  if per_event > 2.5 then
    Alcotest.failf "%.0f minor words over %d park and delay wakeups (%.2f per event, bound 2.5)"
      words events per_event

let test_histogram () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.; 2.; 4.; 1024.; 1_000_000. ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  (* Rank 3 of 5 is the sample 4.; HDR resolution is <= 1% relative. *)
  let p50 = Histogram.percentile h 50. in
  Alcotest.(check bool) "p50 within 1% of 4" true (Float.abs (p50 -. 4.) <= 0.04);
  let p99 = Histogram.percentile h 99. in
  Alcotest.(check bool) "p99 within 1% of 1e6" true
    (Float.abs (p99 -. 1e6) <= 1e4)

let samples_gen =
  QCheck.(list_of_size Gen.(0 -- 100) (float_bound_exclusive 1e9))

let histogram_of xs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) xs;
  h

let prop_histogram_quantiles_monotone =
  QCheck.Test.make ~name:"histogram quantiles are monotone in p" ~count:200
    QCheck.(triple samples_gen (float_range 0. 100.) (float_range 0. 100.))
    (fun (xs, p1, p2) ->
      let h = histogram_of xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Histogram.percentile h lo <= Histogram.percentile h hi)

let prop_histogram_merge_preserves_count =
  QCheck.Test.make ~name:"histogram merge preserves count" ~count:200
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let a = histogram_of xs in
      Histogram.merge ~into:a (histogram_of ys);
      Histogram.count a = List.length xs + List.length ys)

let prop_histogram_merge_equals_union =
  QCheck.Test.make ~name:"histogram merge = histogram of concatenation" ~count:200
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let a = histogram_of xs in
      Histogram.merge ~into:a (histogram_of ys);
      let u = histogram_of (xs @ ys) in
      List.for_all
        (fun p -> Histogram.percentile a p = Histogram.percentile u p)
        [ 0.; 10.; 50.; 90.; 99.; 100. ])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_order;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "empty" `Quick test_heap_empty;
      ]
      @ qsuite [ prop_heap_sorted ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
      ]
      @ qsuite
          [
            prop_rng_float_range;
            prop_rng_float_matches_division;
            prop_rng_int_range;
          ] );
    ( "sim.stats",
      [
        Alcotest.test_case "basic" `Quick test_stats_basic;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
      ]
      @ qsuite [ prop_stats_mean_bounds ] );
    ( "sim.breakdown",
      [
        Alcotest.test_case "charge/total" `Quick test_breakdown_charge;
        Alcotest.test_case "merge/scale" `Quick test_breakdown_merge_scale;
        Alcotest.test_case "figure2 folding" `Quick test_breakdown_figure2_folding;
      ]
      @ qsuite
          [
            prop_breakdown_merge_commutative;
            prop_breakdown_merge_associative;
            prop_breakdown_scale_identity;
            prop_breakdown_total_is_sum;
          ] );
    ( "sim.memcost",
      [
        Alcotest.test_case "monotone" `Quick test_memcost_monotone;
        Alcotest.test_case "cache kinks" `Quick test_memcost_cache_kinks;
        Alcotest.test_case "kernel page checks" `Quick
          test_memcost_kernel_copy_page_checks;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "delay ordering" `Quick test_engine_delay_ordering;
        Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
        Alcotest.test_case "run_until" `Quick test_engine_run_until;
        Alcotest.test_case "run_until slices" `Quick test_engine_run_until_slices;
        Alcotest.test_case "step limit" `Quick test_engine_step_limit;
        Alcotest.test_case "exception through handoff" `Quick
          test_engine_exception_through_handoff;
        Alcotest.test_case "unpark, then park" `Quick test_engine_unpark_then_park;
        Alcotest.test_case "slow-path delay allocates <= 2.5 words" `Quick
          test_engine_delay_allocation;
        Alcotest.test_case "park/unpark allocates <= 2.5 words per event" `Quick
          test_engine_park_allocation;
        Alcotest.test_case "histogram" `Quick test_histogram;
      ]
      @ qsuite
          [
            prop_histogram_quantiles_monotone;
            prop_histogram_merge_preserves_count;
            prop_histogram_merge_equals_union;
          ]
      @ [
          Alcotest.test_case "Engine.delay allocates <= 2.5 words per event" `Quick
            test_engine_delay_effect_allocation;
        ] );
  ]
