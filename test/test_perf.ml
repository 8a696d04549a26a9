(* Hot-path substrate regressions: the heap, APL cache, memory and
   trace-digest representations were all rewritten for speed in the
   performance-overhaul PR, under the rule that fixed-seed replay
   digests must not move.  These tests pin each optimized structure to
   its reference semantics with property tests and targeted units, so a
   future "optimization" that bends behavior fails here rather than in
   a shifted golden digest nobody can decode. *)

module Heap = Dipc_sim.Heap
module Engine = Dipc_sim.Engine
module Oltp = Dipc_workloads.Oltp
module Trace = Dipc_sim.Trace
module Breakdown = Dipc_sim.Breakdown
module Memory = Dipc_hw.Memory
module Apl_cache = Dipc_hw.Apl_cache
module Capability = Dipc_hw.Capability
module Perm = Dipc_hw.Perm

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- heap: pop order, tie-breaking, model equivalence --- *)

(* Times drawn from a small grid so equal timestamps are common — the
   FIFO tie-break is the property under test. *)
let time_gen = QCheck.map (fun n -> float_of_int n /. 4.) QCheck.(int_range 0 40)

let drain h =
  let rec go acc = match Heap.pop h with
    | None -> List.rev acc
    | Some (time, payload) -> go ((time, payload) :: acc)
  in
  go []

let heap_of items =
  let h = Heap.create () in
  List.iter (fun (time, payload) -> Heap.push h ~time payload) items;
  h

let prop_pop_sorted =
  QCheck.Test.make ~name:"heap pops sorted by time" ~count:300
    QCheck.(list_of_size Gen.(0 -- 60) time_gen)
    (fun times ->
      let popped = drain (heap_of (List.mapi (fun i t -> (t, i)) times)) in
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      List.length popped = List.length times && sorted popped)

let prop_fifo_at_equal_times =
  QCheck.Test.make ~name:"heap is FIFO among equal timestamps" ~count:300
    QCheck.(pair (int_range 0 40) (int_range 1 50))
    (fun (t, n) ->
      let time = float_of_int t in
      let popped = drain (heap_of (List.init n (fun i -> (time, i)))) in
      popped = List.init n (fun i -> (time, i)))

(* Stable sort by time alone is exactly "earliest first, insertion order
   among equals" — the heap must agree with it on any input. *)
let prop_matches_stable_sort =
  QCheck.Test.make ~name:"heap drain equals stable sort" ~count:300
    QCheck.(list_of_size Gen.(0 -- 80) time_gen)
    (fun times ->
      let items = List.mapi (fun i t -> (t, i)) times in
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare (a : float) b) items
      in
      drain (heap_of items) = expected)

(* Interleaved pushes and pops against a sorted-list model, exercising
   the hole-percolation paths with a heap that grows and shrinks.  Up to
   400 operations, pushes outnumbering pops about 7:3, carry the heap
   through several doublings with pops (and so recycled payload slots)
   between them.  Every payload is a fresh id, so a recycled slot
   handing back a stale payload fails the comparison; pops switch
   between [pop] and [top_time]/[pop_min] with the parity of the pushes
   so far, and the heap is drained against the model at the end. *)
let prop_push_pop_model =
  QCheck.Test.make ~name:"heap push/pop matches list model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 400) (option ~ratio:0.7 time_gen))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] (* sorted (time, seq, id); seq breaks ties *) in
      let seq = ref 0 in
      let ok = ref true in
      let pop_checked () =
        let popped =
          if !seq land 1 = 0 then Heap.pop h
          else if Heap.is_empty h then None
          else begin
            let time = Heap.top_time h in
            Some (time, Heap.pop_min h)
          end
        in
        match (popped, !model) with
        | None, [] -> ()
        | Some (time, payload), (mt, _, mid) :: rest ->
            if time <> mt || payload <> mid then ok := false
            else model := rest
        | _ -> ok := false
      in
      List.iter
        (fun op ->
          match op with
          | Some time ->
              let id = !seq in
              incr seq;
              Heap.push h ~time id;
              model :=
                List.stable_sort
                  (fun (a, sa, _) (b, sb, _) -> compare (a, sa) (b, sb))
                  ((time, id, id) :: !model)
          | None -> pop_checked ())
        ops;
      let length_ok = Heap.length h = List.length !model in
      while !ok && !model <> [] do
        pop_checked ()
      done;
      !ok && length_ok && Heap.is_empty h)

let prop_pop_min_agrees =
  QCheck.Test.make ~name:"top_time/pop_min agree with pop" ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) time_gen)
    (fun times ->
      let items = List.mapi (fun i t -> (t, i)) times in
      let a = heap_of items and b = heap_of items in
      let ok = ref true in
      while not (Heap.is_empty a) do
        let time = Heap.top_time a in
        let payload = Heap.pop_min a in
        (match Heap.pop b with
        | Some (time', payload') ->
            if time <> time' || payload <> payload' then ok := false
        | None -> ok := false)
      done;
      !ok && Heap.is_empty b)

(* --- queue: engine-shaped streams against the list model ---

   The queue keeps the entries before a time [split] in a small sorted
   ring (the near tier) and the rest in a binary heap (the far tier);
   a pop from an empty ring first refills it from the heap, and a push
   into a full ring goes to the heap itself if it is the latest entry,
   or else first spills the ring's latest equal-time run there.  The
   streams below are shaped like the engine's, which is what makes the
   tiers matter: a monotone clock (every push is at or after the last
   popped time), most pushes a small offset ahead of it, a minority far
   timers.  Times are whole numbers, so equal times are common. *)

type qop =
  | Near of int  (* push at now + offset, offset 0..3 *)
  | Far of int  (* push at now + 50 + offset: a stall timer *)
  | Burst of int * int  (* n pushes at now + offset, n up to 40 *)
  | Pop
  | Drain  (* pop everything *)

let qop_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun o -> Near o) (int_range 0 3));
        (2, map (fun o -> Far o) (int_range 0 5));
        (1, map2 (fun n o -> Burst (n, o)) (int_range 2 40) (int_range 0 60));
        (8, return Pop);
        (1, return Drain);
      ])

let print_qop = function
  | Near o -> Printf.sprintf "Near %d" o
  | Far o -> Printf.sprintf "Far %d" o
  | Burst (n, o) -> Printf.sprintf "Burst (%d, %d)" n o
  | Pop -> "Pop"
  | Drain -> "Drain"

(* The model is a list sorted by time, push order among equal times: a
   push goes after every entry not later than it. *)
let rec model_insert time id = function
  | (t, _) :: _ as l when t > time -> (time, id) :: l
  | e :: rest -> e :: model_insert time id rest
  | [] -> [ (time, id) ]

let prop_engine_shaped_streams =
  QCheck.Test.make ~name:"queue matches list model on engine-shaped streams"
    ~count:300
    QCheck.(make ~print:Print.(list print_qop) Gen.(list_size (0 -- 300) qop_gen))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and now = ref 0. and next_id = ref 0 in
      let push time =
        Heap.push h ~time !next_id;
        model := model_insert time !next_id !model;
        incr next_id
      in
      let pop () =
        match (Heap.pop h, !model) with
        | None, [] -> true
        | Some (time, id), (mt, mid) :: rest when time = mt && id = mid ->
            now := time;
            model := rest;
            true
        | _ -> false
      in
      let step op =
        let ok =
          match op with
          | Near o -> push (!now +. float_of_int o); true
          | Far o -> push (!now +. 50. +. float_of_int o); true
          | Burst (n, o) ->
              for _ = 1 to n do
                push (!now +. float_of_int o)
              done;
              true
          | Pop -> pop ()
          | Drain ->
              let ok = ref true in
              while !ok && !model <> [] do
                ok := pop ()
              done;
              !ok && Heap.is_empty h
        in
        ok
        && Heap.length h = List.length !model
        && Heap.is_empty h = (!model = [])
      in
      List.for_all step ops
      &&
      let ok = ref true in
      while !ok && !model <> [] do
        ok := pop ()
      done;
      !ok && Heap.is_empty h)

(* An equal-time burst of 80 pushes, two and a half rings: the first
   32 fill the ring, the rest go to the far heap with the split at
   their time.  Popping the ring empty and once more refills it with
   the next 32 and leaves 16 in the heap at the split itself, so equal
   times straddle the split, and a push at that time must queue behind
   both tiers' entries while an earlier push goes first. *)
let test_spill_refill_ties () =
  let h = Heap.create () in
  for i = 0 to 79 do
    Heap.push h ~time:5. i
  done;
  Alcotest.(check int) "pushes past the full ring went far" 48
    (Heap.far_pushes h);
  Alcotest.(check (list int)) "the ring pops first" (List.init 33 Fun.id)
    (List.init 33 (fun _ -> Heap.pop_min h));
  Alcotest.(check (pair int int)) "refilled ring and the run's rest" (31, 47)
    (Heap.near_length h, Heap.length h);
  Heap.push h ~time:5. 80;
  Heap.push h ~time:4. 81;
  Alcotest.(check (option (pair (float 0.) int))) "earlier push first"
    (Some (4., 81)) (Heap.pop h);
  Alcotest.(check (list int)) "push order at the split time"
    (List.init 48 (fun i -> i + 33))
    (List.map snd (drain h))

(* After 2^38 pushes into one queue the packed keys run out of sequence
   numbers and the live entries are renumbered in place.  Reaching that
   honestly takes hours, so jump the counter ([next_seq], field 4 of the
   queue record) to the limit, then push and pop across the renumbering:
   the pop order must still match a stable sort by time.  The field is
   checked to hold the push count first, so a change of the record's
   layout fails here instead of overwriting some other field.

   The renumbering crosses entries in both tiers at the same time: a
   ring full of entries at time 10, four more at 10 behind them in the
   far heap.  The push right after it spills the ring's run into the
   far heap, where the fresh numbers must still put it before those
   four. *)
let test_seq_renumbering () =
  let h = Heap.create () in
  let model = ref [] and id = ref 0 in
  let push time =
    Heap.push h ~time !id;
    model := !model @ [ (time, !id) ];
    incr id
  in
  let pop () =
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> compare (a : float) b) !model
    in
    match (Heap.pop h, sorted) with
    | Some got, (expected :: _ as l) ->
        Alcotest.(check (pair (float 0.) int)) "pop order" expected got;
        model := List.filter (fun e -> e != expected) l
    | _ -> Alcotest.fail "heap and model disagree on emptiness"
  in
  for _ = 0 to 35 do
    push 10.
  done;
  push 100.;
  pop ();
  Alcotest.(check (pair int int)) "31 near entries, 36 in all" (31, 36)
    (Heap.near_length h, Heap.length h);
  Alcotest.(check int) "field 4 holds the push count" !id
    (Obj.obj (Obj.field (Obj.repr h) 4) : int);
  let seq_limit = 1 lsl (Sys.int_size - 1 - 24) in
  Obj.set_field (Obj.repr h) 4 (Obj.repr (seq_limit - 1));
  push 1.;
  push 2.;
  Alcotest.(check bool) "both tiers after the renumbering" true
    (Heap.near_length h > 0 && Heap.near_length h < Heap.length h);
  for i = 0 to 11 do
    push (float_of_int (i mod 4) +. 9.);
    if i mod 3 = 2 then pop ()
  done;
  while !model <> [] do
    pop ()
  done

(* --- heap: popped payloads must not be retained --- *)

(* Separate non-inlined stages so no stack slot of the test function
   keeps the payloads alive across the GC. *)
let[@inline never] fill_heap h w ~first n =
  for i = first to first + n - 1 do
    let payload = Bytes.make 24 'x' in
    Weak.set w i (Some payload);
    Heap.push h ~time:(float_of_int ((i * 7919) mod 101)) payload
  done

let[@inline never] pop_heap h n =
  for _ = 1 to n do
    ignore (Heap.pop h)
  done

let[@inline never] drain_heap h = while Heap.pop h <> None do () done

let live_payloads w =
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr live
  done;
  !live

let both_tiers h = Heap.near_length h > 0 && Heap.near_length h < Heap.length h

(* The queue grows (256 -> 512 slots), recycles slots through a partial
   drain, grows again (-> 1024) on top of the recycled slots and drains:
   at every stage exactly the queued payloads stay reachable, with
   payloads queued in both tiers at each check. *)
let test_no_payload_retention () =
  let h = Heap.create () in
  let w = Weak.create 750 in
  fill_heap h w ~first:0 300;
  pop_heap h 200;
  Alcotest.(check bool) "both tiers after a partial drain" true (both_tiers h);
  Alcotest.(check int) "only queued payloads live after a partial drain"
    (Heap.length h) (live_payloads w);
  fill_heap h w ~first:300 450;
  pop_heap h 300;
  Alcotest.(check bool) "both tiers after regrowth" true (both_tiers h);
  Alcotest.(check int) "only queued payloads live after regrowth"
    (Heap.length h) (live_payloads w);
  drain_heap h;
  Alcotest.(check int) "popped payloads collected after drain" 0 (live_payloads w);
  (* The heap stays usable after the drain. *)
  Heap.push h ~time:1. (Bytes.make 1 'y');
  Alcotest.(check int) "heap usable after drain" 1 (Heap.length h)

(* --- queue and allocation: the design guards on the Fig. 8 cells ---

   The two tiers pay only if the common push stays out of the far heap.
   The count of keys sent there is deterministic for a seeded run, so a
   change that quietly routes the engine's common case through the heap
   fails here, not only on a benchmark host.  Seed 41, 96 threads per
   tier: the Linux cell queues ~86 events at the average push, most of
   them stall timers, and the dIPC cell 3.

   The same runs bound the minor words allocated per engine step, set-up
   included: an event that allocates again (a closure per delay, a boxed
   time, a fresh event block, a waker or queue cell per park) multiplies
   a rep's nursery sweep and with it the resident set, which the
   far-tier share would not show.  With parks and delays allocating only
   their continuations (2 words each), the cells read ~1.07 (Linux) and
   ~2.05 (dIPC) words per step.  The suite traces the Linux cell, so the
   same run with its tracer must allocate what the untraced one does: a
   traced kernel event that boxes its time or builds optional arguments
   shows up as the difference. *)
type cell_run = { far_share : float; words_per_step : float }

let cell_run ?trace config =
  let engine = ref None in
  let drive_until e deadline =
    engine := Some e;
    Engine.run_until e deadline
  in
  let w0 = Gc.minor_words () in
  ignore
    (Oltp.run ~seed:41 ?trace ~drive_until ~config ~db_mode:Oltp.In_memory
       ~threads:96 ());
  let words = Gc.minor_words () -. w0 in
  match !engine with
  | None -> Alcotest.fail "the run never drove its engine"
  | Some e ->
      let pushes, far = Engine.queue_pushes e in
      Alcotest.(check bool) "the run pushed events" true (pushes > 0);
      {
        far_share = float_of_int far /. float_of_int pushes;
        words_per_step = words /. float_of_int (Engine.steps e);
      }

let linux_run = lazy (cell_run Oltp.Linux)

let dipc_run = lazy (cell_run Oltp.Dipc)

let linux_traced_run =
  lazy (cell_run ~trace:(Dipc_bench_suite.Suite.mk_tracer ()) Oltp.Linux)

let test_far_share_linux () =
  let share = (Lazy.force linux_run).far_share in
  if share > 0.15 then
    Alcotest.failf "Linux cell sent %.1f%% of its pushes to the far heap (bound 15%%)"
      (100. *. share)

let test_far_share_dipc () =
  let share = (Lazy.force dipc_run).far_share in
  if share > 0.01 then
    Alcotest.failf "dIPC cell sent %.2f%% of its pushes to the far heap (bound 1%%)"
      (100. *. share)

let test_words_linux () =
  let w = (Lazy.force linux_run).words_per_step in
  if w > 1.2 then
    Alcotest.failf "Linux cell allocated %.2f minor words per engine step (bound 1.2)" w

let test_words_linux_traced () =
  let traced = (Lazy.force linux_traced_run).words_per_step in
  let untraced = (Lazy.force linux_run).words_per_step in
  if traced -. untraced > 0.05 then
    Alcotest.failf
      "traced Linux cell allocated %.3f minor words per engine step, %.3f more than \
       untraced (bound 0.05)"
      traced (traced -. untraced)

let test_words_dipc () =
  let w = (Lazy.force dipc_run).words_per_step in
  if w > 2.5 then
    Alcotest.failf "dIPC cell allocated %.2f minor words per engine step (bound 2.5)" w

(* --- APL cache: reset, and LRU model equivalence --- *)

let test_apl_reset_clears_stats () =
  let c = Apl_cache.create () in
  ignore (Apl_cache.lookup c 7);
  ignore (Apl_cache.install c 7);
  ignore (Apl_cache.lookup c 7);
  ignore (Apl_cache.ensure c 9);
  let hits, misses, refills = Apl_cache.stats c in
  Alcotest.(check bool) "activity recorded" true (hits > 0 && misses > 0 && refills > 0);
  Apl_cache.reset c;
  Alcotest.(check (triple int int int)) "reset clears hits/misses/refills" (0, 0, 0)
    (Apl_cache.stats c);
  Alcotest.(check (list int)) "reset clears residency" [] (Apl_cache.resident_tags c);
  (* A fresh miss after reset counts from zero. *)
  ignore (Apl_cache.ensure c 7);
  Alcotest.(check (triple int int int)) "counting restarts" (0, 1, 1) (Apl_cache.stats c)

(* Naive reference model of the cache: an array scanned in full, no
   index.  Victim = first empty slot, else first least-recently-used. *)
module Model = struct
  type t = { tags : int array; last_use : int array; mutable clock : int }

  let create () = { tags = Array.make Apl_cache.capacity (-1); last_use = Array.make Apl_cache.capacity 0; clock = 0 }

  let tick m =
    m.clock <- m.clock + 1;
    m.clock

  let lookup m tag =
    let found = ref None in
    for i = Apl_cache.capacity - 1 downto 0 do
      if m.tags.(i) = tag then found := Some i
    done;
    match !found with
    | Some i ->
        m.last_use.(i) <- tick m;
        Some i
    | None -> None

  let install m tag =
    let victim = ref 0 in
    for i = 0 to Apl_cache.capacity - 1 do
      if m.tags.(i) = -1 && m.tags.(!victim) <> -1 then victim := i
      else if
        m.tags.(i) <> -1
        && m.tags.(!victim) <> -1
        && m.last_use.(i) < m.last_use.(!victim)
      then victim := i
    done;
    m.tags.(!victim) <- tag;
    m.last_use.(!victim) <- tick m;
    !victim

  let ensure m tag =
    match lookup m tag with Some hw -> (hw, true) | None -> (install m tag, false)

  let resident m = Array.to_list m.tags |> List.filter (fun t -> t >= 0)
end

(* Tag universe deliberately larger than the capacity so the stream
   forces evictions and re-installs. *)
let prop_apl_matches_model =
  QCheck.Test.make ~name:"apl_cache ensure matches naive LRU model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 200) (int_range 0 45))
    (fun tags ->
      let c = Apl_cache.create () in
      let m = Model.create () in
      List.for_all
        (fun tag ->
          let hw, hit = Apl_cache.ensure c tag in
          let hw', hit' = Model.ensure m tag in
          hw = hw' && hit = hit')
        tags
      && Apl_cache.resident_tags c = Model.resident m)

let prop_apl_lookup_pure_miss =
  QCheck.Test.make ~name:"apl_cache lookup misses do not mutate residency" ~count:100
    QCheck.(pair (list_of_size Gen.(0 -- 40) (int_range 0 45)) (int_range 100 200))
    (fun (tags, absent) ->
      let c = Apl_cache.create () in
      List.iter (fun tag -> ignore (Apl_cache.ensure c tag)) tags;
      let before = Apl_cache.resident_tags c in
      let r = Apl_cache.lookup c absent in
      r = None && Apl_cache.resident_tags c = before)

(* --- memory: unmapped reads, store disjointness, alignment --- *)

let test_memory_unmapped_zero () =
  let m = Memory.create () in
  Alcotest.(check int) "never-written word is 0" 0 (Memory.load_word m 0x5000);
  Alcotest.(check bool) "never-written cap is None" true (Memory.load_cap m 0x5000 = None);
  Alcotest.(check bool) "never-written instr is None" true (Memory.fetch m 0x5000 = None);
  (* Writing one page must not materialize values on another. *)
  Memory.store_word m 0x5000 42;
  Alcotest.(check int) "same page, other word still 0" 0 (Memory.load_word m 0x5008);
  Alcotest.(check int) "other page still 0" 0 (Memory.load_word m 0x9000);
  Alcotest.(check int) "written word reads back" 42 (Memory.load_word m 0x5000);
  (* Flip between pages: the one-entry page cache must not leak values
     across pages. *)
  Memory.store_word m 0x9000 7;
  Alcotest.(check int) "page A after touching page B" 42 (Memory.load_word m 0x5000);
  Alcotest.(check int) "page B after touching page A" 7 (Memory.load_word m 0x9000)

let test_memory_word_cap_disjoint () =
  let m = Memory.create () in
  let cap =
    {
      Capability.base = 0x2000;
      length = 0x100;
      perm = Perm.Read;
      scope = Capability.Synchronous { thread = 0; depth = 0; epoch = 0 };
    }
  in
  (* A word store at a 32-aligned address must not disturb the cap cell
     there, and vice versa. *)
  Memory.store_word m 0x4020 0xdead;
  Alcotest.(check bool) "word store leaves cap store empty" true
    (Memory.load_cap m 0x4020 = None);
  Memory.store_cap m 0x4020 cap;
  Alcotest.(check int) "cap store leaves word intact" 0xdead (Memory.load_word m 0x4020);
  Alcotest.(check bool) "cap reads back" true (Memory.load_cap m 0x4020 = Some cap);
  Memory.store_word m 0x4020 0xbeef;
  Alcotest.(check bool) "word overwrite leaves cap intact" true
    (Memory.load_cap m 0x4020 = Some cap)

let test_memory_alignment_faults () =
  let m = Memory.create () in
  let check_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  check_invalid "unaligned word load" (fun () -> Memory.load_word m 0x1001);
  check_invalid "word load aligned to 4 only" (fun () -> Memory.load_word m 0x1004);
  check_invalid "unaligned word store" (fun () -> Memory.store_word m 0x1001 1);
  check_invalid "unaligned cap load" (fun () -> Memory.load_cap m 0x1008);
  Alcotest.(check bool) "unaligned fetch is None, not a fault" true
    (Memory.fetch m 0x1002 = None)

(* --- trace digest: the inlined fold equals the v3 definition --- *)

(* The v3 digest exactly as lib/sim/trace.ml's header defines it, as a
   plain list fold: each field's 64-bit word w premixed into
   (w lxor (w lsr 32)) * K_i, the eight terms summed into one event
   word e, h <- (rotl h 23 lxor e) * K per event from a fixed seed,
   splitmix64's finaliser at the end.  Nothing here is shared with
   lib/sim/trace.ml or lib/sim/rng.ml. *)
let v3_seed = 0x243F6A8885A308D3L

(* K_ts, K_kind, K_cpu, K_tid, K_tag, K_cat, K_dur, K_arg. *)
let v3_premix_constants =
  [
    0x9E3779B185EBCA87L;
    0xC2B2AE3D27D4EB4FL;
    0x165667B19E3779F9L;
    0x85EBCA77C2B2AE63L;
    0x27D4EB2F165667C5L;
    0x87C37B91114253D5L;
    0x4CF5AD432745937FL;
    0xFF51AFD7ED558CCDL;
  ]

let v3_premix w k = Int64.mul (Int64.logxor w (Int64.shift_right_logical w 32)) k

let v3_step h e =
  let rotl = Int64.logor (Int64.shift_left h 23) (Int64.shift_right_logical h 41) in
  Int64.mul (Int64.logxor rotl e) 0x9E3779B97F4A7C15L

type ev = {
  ts : float;
  kind : Trace.kind;
  cpu : int;
  tid : int;
  tag : int;
  cat : Breakdown.category option;
  dur : float;
  arg : int;
}

let all_cats = None :: List.map (fun c -> Some c) Breakdown.all_categories

let index_of x l =
  let rec go i = function
    | [] -> assert false
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 l

let cat_index = function None -> -1 | Some c -> Breakdown.category_index c

let words e =
  [
    Int64.bits_of_float e.ts;
    Int64.of_int (Test_trace.kind_index e.kind);
    Int64.of_int e.cpu;
    Int64.of_int e.tid;
    Int64.of_int e.tag;
    Int64.of_int (cat_index e.cat);
    Int64.bits_of_float e.dur;
    Int64.of_int e.arg;
  ]

let event_word e =
  List.fold_left2
    (fun acc w k -> Int64.add acc (v3_premix w k))
    0L (words e) v3_premix_constants

let v3_digest events =
  Test_trace.splitmix_finaliser
    (List.fold_left (fun h e -> v3_step h (event_word e)) v3_seed events)

let traced_digest events =
  let tr = Trace.create ~capacity:4 () in
  List.iter
    (fun e ->
      Trace.emit tr ~ts:e.ts ~cpu:e.cpu ~tid:e.tid ~tag:e.tag ?cat:e.cat ~dur:e.dur
        ~arg:e.arg e.kind)
    events;
  Trace.digest tr

(* Ints of every magnitude and sign: small, -1 ("missing"), 16-bit,
   arbitrary, and the sign-extension extremes. *)
let digest_int_gen =
  QCheck.oneof
    [
      QCheck.int_range 0 255;
      QCheck.always (-1);
      QCheck.int_range 256 65535;
      QCheck.int;
      QCheck.oneofl [ min_int; max_int; -2; 1 lsl 40; -(1 lsl 40) ];
    ]

(* Floats: exact zero, integral values (low word of the bit pattern all
   zero), fractions and arbitrary patterns. *)
let digest_float_gen =
  QCheck.oneof
    [
      QCheck.always 0.;
      QCheck.map float_of_int (QCheck.int_range 0 4096);
      QCheck.map (fun f -> f *. 1e-3) QCheck.pos_float;
      QCheck.float;
    ]

let cat_gen = QCheck.oneofl all_cats

let kind_gen = QCheck.oneofl Test_trace.all_kinds

let event_gen =
  QCheck.map
    (fun ((ts, kind, cpu, tid), (tag, cat, dur, arg)) ->
      { ts; kind; cpu; tid; tag; cat; dur; arg })
    (QCheck.pair
       (QCheck.quad digest_float_gen kind_gen digest_int_gen digest_int_gen)
       (QCheck.quad digest_int_gen cat_gen digest_float_gen digest_int_gen))

let stream_gen lo = QCheck.list_of_size QCheck.Gen.(lo -- 10) event_gen

let prop_digest_matches_definition =
  QCheck.Test.make ~name:"emit digest equals a plain list fold of the v3 definition"
    ~count:500 (stream_gen 1) (fun events ->
      traced_digest events = v3_digest events)

let flip_float x bit =
  Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) (Int64.shift_left 1L bit))

(* [other x l k]: a member of [l] other than [x], chosen by [k]. *)
let other x l k =
  let n = List.length l in
  List.nth l ((index_of x l + 1 + (k mod (n - 1))) mod n)

(* Change field [field] of [e] by one bit: bit [bit] of a float's
   pattern or of an int (an OCaml int has 63 bits; bit 62 is its sign,
   which reaches bits 62 and 63 of the folded word).  The enumerated
   fields, kind and category, change to another value. *)
let flip_field e field bit =
  let flip_int x = x lxor (1 lsl (bit mod 63)) in
  match field with
  | 0 -> { e with ts = flip_float e.ts bit }
  | 1 -> { e with kind = other e.kind Test_trace.all_kinds bit }
  | 2 -> { e with cpu = flip_int e.cpu }
  | 3 -> { e with tid = flip_int e.tid }
  | 4 -> { e with tag = flip_int e.tag }
  | 5 -> { e with cat = other e.cat all_cats bit }
  | 6 -> { e with dur = flip_float e.dur bit }
  | _ -> { e with arg = flip_int e.arg }

let prop_single_field_flip =
  QCheck.Test.make ~name:"flipping one bit of one field changes the digest" ~count:1000
    (QCheck.pair (stream_gen 1)
       (QCheck.triple QCheck.small_nat (QCheck.int_range 0 7) (QCheck.int_range 0 63)))
    (fun (events, (i, field, bit)) ->
      (* Shrinking may empty the stream despite [stream_gen]'s bound. *)
      QCheck.assume (events <> []);
      let i = i mod List.length events in
      let flipped =
        List.mapi (fun j e -> if j = i then flip_field e field bit else e) events
      in
      traced_digest flipped <> traced_digest events)

(* Two sign-bit flips: an odd multiplier maps x lxor 2^63 to
   x*K lxor 2^63, so a bit-63 difference stays in bit 63.  Without the
   rotate the second of two flips in different events cancels the
   first; without the premix xorshift two flips in one event cancel in
   its sum. *)
let prop_two_sign_flips =
  QCheck.Test.make ~name:"flipping bit 63 of two fields changes the digest" ~count:1000
    (QCheck.triple (stream_gen 1) QCheck.small_nat QCheck.small_nat)
    (fun (events, a, b) ->
      QCheck.assume (events <> []);
      (* Position p is field (ts if p even, dur if odd) of event p/2. *)
      let n = 2 * List.length events in
      let a = a mod n and b = b mod n in
      QCheck.assume (a <> b);
      let negate p j e =
        if p / 2 <> j then e
        else if p mod 2 = 0 then { e with ts = flip_float e.ts 63 }
        else { e with dur = flip_float e.dur 63 }
      in
      let flipped = List.mapi (fun j e -> negate b j (negate a j e)) events in
      traced_digest flipped <> traced_digest events)

let prop_adjacent_swap =
  QCheck.Test.make ~name:"swapping two adjacent distinct events changes the digest"
    ~count:1000 (QCheck.pair (stream_gen 2) QCheck.small_nat) (fun (events, i) ->
      QCheck.assume (List.length events >= 2);
      let i = i mod (List.length events - 1) in
      let arr = Array.of_list events in
      let x = arr.(i) and y = arr.(i + 1) in
      QCheck.assume (words x <> words y);
      arr.(i) <- y;
      arr.(i + 1) <- x;
      traced_digest (Array.to_list arr) <> traced_digest events)

let prop_emit_bare_equivalent =
  QCheck.Test.make ~name:"emit_bare digest-equivalent to emit" ~count:300
    (QCheck.pair digest_float_gen kind_gen)
    (fun (ts, kind) ->
      let a = Trace.create () and b = Trace.create () in
      Trace.emit a ~ts kind;
      Trace.emit_bare b ~ts kind;
      Trace.digest a = Trace.digest b && Trace.events a = Trace.events b)

let prop_emit_charge_equivalent =
  QCheck.Test.make ~name:"emit_charge digest-equivalent to emit" ~count:300
    (QCheck.pair
       (QCheck.quad digest_float_gen digest_int_gen digest_int_gen digest_float_gen)
       (QCheck.oneofl Breakdown.all_categories))
    (fun ((ts, cpu, tid, dur), cat) ->
      let a = Trace.create () and b = Trace.create () in
      Trace.emit a ~ts ~cpu ~tid ~cat ~dur Trace.Charge;
      Trace.emit_charge b ~ts ~cpu ~tid ~cat ~dur;
      Trace.digest a = Trace.digest b && Trace.events a = Trace.events b)

let prop_emit_thread_equivalent =
  QCheck.Test.make ~name:"emit_thread digest-equivalent to emit" ~count:300
    (QCheck.pair
       (QCheck.quad digest_float_gen digest_int_gen digest_int_gen digest_int_gen)
       kind_gen)
    (fun ((ts, cpu, tid, arg), kind) ->
      let a = Trace.create () and b = Trace.create () in
      Trace.emit a ~ts ~cpu ~tid ~arg kind;
      Trace.emit_thread b ~ts ~cpu ~tid ~arg kind;
      Trace.digest a = Trace.digest b && Trace.events a = Trace.events b)

let suites =
  [
    ( "perf.heap",
      qsuite
        [
          prop_pop_sorted;
          prop_fifo_at_equal_times;
          prop_matches_stable_sort;
          prop_push_pop_model;
          prop_pop_min_agrees;
          prop_engine_shaped_streams;
        ]
      @ [
          Alcotest.test_case "spill and refill split a tie" `Quick
            test_spill_refill_ties;
          Alcotest.test_case "popped payloads not retained" `Quick
            test_no_payload_retention;
          Alcotest.test_case "sequence numbers renumbered" `Quick
            test_seq_renumbering;
        ]
    );
    ( "perf.queue_guard",
      [
        Alcotest.test_case "Linux cell: far heap <= 15% of pushes" `Quick
          test_far_share_linux;
        Alcotest.test_case "dIPC cell: far heap <= 1% of pushes" `Quick
          test_far_share_dipc;
        Alcotest.test_case "Linux cell: <= 2 minor words per 5/3 steps" `Quick
          test_words_linux;
        Alcotest.test_case "dIPC cell: <= 5 minor words per 2 steps" `Quick
          test_words_dipc;
        Alcotest.test_case "traced Linux cell allocates like the untraced one" `Quick
          test_words_linux_traced;
      ] );
    ( "perf.apl_cache",
      Alcotest.test_case "reset clears statistics" `Quick test_apl_reset_clears_stats
      :: qsuite [ prop_apl_matches_model; prop_apl_lookup_pure_miss ] );
    ( "perf.memory",
      [
        Alcotest.test_case "unmapped reads return zero" `Quick test_memory_unmapped_zero;
        Alcotest.test_case "word and cap stores disjoint" `Quick
          test_memory_word_cap_disjoint;
        Alcotest.test_case "alignment faults" `Quick test_memory_alignment_faults;
      ] );
    ( "perf.digest",
      qsuite
        [
          prop_digest_matches_definition;
          prop_single_field_flip;
          prop_two_sign_flips;
          prop_adjacent_swap;
          prop_emit_bare_equivalent;
          prop_emit_charge_equivalent;
          prop_emit_thread_equivalent;
        ] );
  ]
