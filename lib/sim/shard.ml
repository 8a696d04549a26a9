(* Conservative parallel DES coordinator (ROADMAP item 2).

   [Parallel] shards *across* independent runs; this module shards the
   inside of one run.  The model is partitioned into shards — each an
   independent sequential simulator (the open-arrival admission source
   and station, a synthetic stepper in tests) owning a private event
   heap — and the coordinator advances them in conservative lookahead
   windows (the classic Chandy–Misra–Bryant null-message bound,
   collapsed to a global barrier):

     window bound  H = min over shards of (next_i + lookahead_i)

   where [next_i] is shard i's earliest pending local event (including
   cross-shard messages already delivered to it) and [lookahead_i] its
   *promise*: every message it will ever emit from now on carries a
   timestamp at least [next_i + lookahead_i].  Within a window every
   shard may process its local events up to [H] without seeing any
   other shard — no shared mutable state, so the window bodies can run
   on separate OCaml domains — and at the window barrier the emitted
   messages are exchanged.

   Determinism is the whole point (the digest gate of DESIGN.md
   Sec. 10/14): at the barrier the outboxes are merged into a single
   total order keyed by (timestamp, source shard id, per-source emission
   seqno) before delivery, so the delivery order — and therefore every
   downstream heap seqno, trace event and digest — is a pure function
   of the model, independent of domain scheduling and of [~par].
   Serial ([par:false]) and parallel ([par:true]) execution of the same
   sharded model are byte-identical by construction, and the tie-break
   is pinned by test_shard.ml.

   Safety is enforced, not assumed: a message timestamped before the
   current window bound would have to travel into a peer's past, so
   [emit] raises [Causality_violation] loudly (the mutation smoke tests
   shrink a model's real latency below its declared lookahead and
   assert exactly this).  [~enforce:false] exists only so tests can
   demonstrate what the silent corruption would look like — the checker
   catches it downstream as a "time-regression".

   Messages at *exactly* the window bound are legal and ordered after
   the receiver's local events at that instant (the receiver has
   already processed through [H] when they arrive) — the contract
   matching the serial open-arrival tie rule, pinned in test_shard.ml.

   An input-free shard (one no other shard ever sends to — e.g. the
   open-arrival admission source) may run arbitrarily far *ahead* of
   the window inside [st_step], as long as its emissions still respect
   the bound: nothing it will ever receive can invalidate its state.
   That is what turns the barrier protocol into a pipeline. *)

type 'msg stepper = {
  st_next : unit -> float;
      (* earliest pending local event; [infinity] when drained *)
  st_lookahead : float;
      (* minimum delta between a local event and any message it emits *)
  st_step :
    inbox_at:float array ->
    inbox_pay:'msg array ->
    inbox_len:int ->
    upto:float ->
    emit:(dst:int -> at:float -> 'msg -> unit) ->
    int;
      (* deliver the first [inbox_len] messages of the parallel
         timestamp/payload arrays (already in merged order), process
         local events with time <= [upto], return the number of events
         processed *)
}

type tiebreak = Src_then_seq | Reversed

exception Causality_violation of string

exception Stalled of string

(* Growable message vector in structure-of-arrays form, reused round
   after round: timestamps live in an unboxed float array and payloads
   in a plain array, so the steady-state message path allocates
   *nothing* per message — a packet-record representation was measured
   to promote every record to the major heap (young block stored into an
   old buffer) and cost ~1.5x the wall clock on a million-session
   open-arrival cell; the list/tuple one before it, ~3x.  Growth fills
   the payload array with the payload being pushed, so no dummy ['msg]
   is ever needed.  Slots beyond [v_len] keep stale payload references
   alive until overwritten; that retention is bounded by one window's
   message volume.  [v_sorted]/[v_uniform] track whether the pushes so
   far are time-sorted and single-destination — the barrier's O(1)
   buffer-swap fast path keys on them. *)
type 'msg vec = {
  mutable v_at : float array;
  mutable v_dst : int array;
  mutable v_pay : 'msg array;
  mutable v_len : int;
  mutable v_sorted : bool;
  mutable v_dst0 : int;
  mutable v_uniform : bool;
}

let vec_make () =
  {
    v_at = [||];
    v_dst = [||];
    v_pay = [||];
    v_len = 0;
    v_sorted = true;
    v_dst0 = -1;
    v_uniform = true;
  }

let vec_clear v =
  v.v_len <- 0;
  v.v_sorted <- true;
  v.v_dst0 <- -1;
  v.v_uniform <- true

let vec_push v ~at ~dst pay =
  let cap = Array.length v.v_pay in
  if v.v_len = cap then begin
    let ncap = if cap = 0 then 1024 else 2 * cap in
    let nat = Array.make ncap 0. in
    let ndst = Array.make ncap 0 in
    let npay = Array.make ncap pay in
    Array.blit v.v_at 0 nat 0 v.v_len;
    Array.blit v.v_dst 0 ndst 0 v.v_len;
    Array.blit v.v_pay 0 npay 0 v.v_len;
    v.v_at <- nat;
    v.v_dst <- ndst;
    v.v_pay <- npay
  end;
  if v.v_len = 0 then v.v_dst0 <- dst
  else begin
    if at < v.v_at.(v.v_len - 1) then v.v_sorted <- false;
    if dst <> v.v_dst0 then v.v_uniform <- false
  end;
  v.v_at.(v.v_len) <- at;
  v.v_dst.(v.v_len) <- dst;
  v.v_pay.(v.v_len) <- pay;
  v.v_len <- v.v_len + 1

(* Exchange the buffers of two vecs — the barrier fast path's whole
   per-round cost when one shard streams to one other. *)
let vec_swap a b =
  let at = a.v_at and dst = a.v_dst and pay = a.v_pay and len = a.v_len in
  let sorted = a.v_sorted and dst0 = a.v_dst0 and uniform = a.v_uniform in
  a.v_at <- b.v_at;
  a.v_dst <- b.v_dst;
  a.v_pay <- b.v_pay;
  a.v_len <- b.v_len;
  a.v_sorted <- b.v_sorted;
  a.v_dst0 <- b.v_dst0;
  a.v_uniform <- b.v_uniform;
  b.v_at <- at;
  b.v_dst <- dst;
  b.v_pay <- pay;
  b.v_len <- len;
  b.v_sorted <- sorted;
  b.v_dst0 <- dst0;
  b.v_uniform <- uniform

type 'msg t = {
  steppers : 'msg stepper array;
  tiebreak : tiebreak;
  enforce : bool;
  outboxes : 'msg vec array;  (* per-src, emission order *)
  merged : 'msg vec;  (* barrier scratch, (time, src, seq) order *)
  inboxes : 'msg vec array;  (* per-dst, merged order *)
  mutable rounds : int;
  mutable delivered : int;
}

let create ?(tiebreak = Src_then_seq) ?(enforce = true) steppers =
  if Array.length steppers = 0 then invalid_arg "Shard.create: no shards";
  {
    steppers;
    tiebreak;
    enforce;
    outboxes = Array.init (Array.length steppers) (fun _ -> vec_make ());
    merged = vec_make ();
    inboxes = Array.init (Array.length steppers) (fun _ -> vec_make ());
    rounds = 0;
    delivered = 0;
  }

let rounds t = t.rounds

let delivered t = t.delivered

(* Shard i's effective next event: its own heap or the earliest message
   already merged for it but not yet handed to [st_step]. *)
let effective_next t i =
  let n = t.steppers.(i).st_next () in
  let inbox = t.inboxes.(i) in
  if inbox.v_len = 0 then n else Float.min n inbox.v_at.(0)

let window_bound t =
  let h = ref infinity in
  Array.iteri
    (fun i s ->
      let eot = effective_next t i +. s.st_lookahead in
      if eot < !h then h := eot)
    t.steppers;
  !h

let all_drained t =
  let drained = ref true in
  for i = 0 to Array.length t.steppers - 1 do
    if effective_next t i < infinity then drained := false
  done;
  !drained

(* Merge the round's outboxes into (time, src, seq) order and deal the
   result into the per-destination inboxes for the next round.
   Concatenating the per-source outboxes in ascending source order (each
   in emission order) makes a *stable* sort by timestamp alone produce
   exactly that key; [Reversed] concatenates backwards instead — the
   deliberately wrong tie-break the mutation smoke tests pin as
   digest-visible.  The sort is skipped when the concatenation is
   already time-sorted (always true with a single emitting shard,
   e.g. the open-arrival source), and every buffer is reused across
   rounds: the steady-state barrier moves packet *references* only. *)
let check_dst n dst =
  if dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Shard.run: message for unknown shard %d" dst)

let merge_and_deal t =
  let n = Array.length t.steppers in
  (* Everything previously dealt has been consumed by this round's
     bodies; the inbox vecs are reused for the new crop. *)
  for d = 0 to n - 1 do
    vec_clear t.inboxes.(d)
  done;
  (* Fast path: exactly one shard emitted, in time order, all to one
     destination (every round of the open-arrival decomposition) — the
     merged order is the outbox order, so just swap the outbox's buffers
     with that destination's inbox: O(1), no per-message work at all. *)
  let nonempty = ref (-1) and several = ref false in
  for s = 0 to n - 1 do
    if t.outboxes.(s).v_len > 0 then
      if !nonempty >= 0 then several := true else nonempty := s
  done;
  let fast =
    (not !several)
    && !nonempty >= 0
    &&
    let ob = t.outboxes.(!nonempty) in
    ob.v_sorted && ob.v_uniform
  in
  if fast then begin
    let ob = t.outboxes.(!nonempty) in
    let d = ob.v_dst0 in
    check_dst n d;
    vec_swap ob t.inboxes.(d);
    vec_clear ob
  end
  else if !nonempty >= 0 then begin
    let m = t.merged in
    vec_clear m;
    (match t.tiebreak with
    | Src_then_seq ->
        for s = 0 to n - 1 do
          let ob = t.outboxes.(s) in
          for k = 0 to ob.v_len - 1 do
            vec_push m ~at:ob.v_at.(k) ~dst:ob.v_dst.(k) ob.v_pay.(k)
          done;
          vec_clear ob
        done
    | Reversed ->
        for s = n - 1 downto 0 do
          let ob = t.outboxes.(s) in
          for k = ob.v_len - 1 downto 0 do
            vec_push m ~at:ob.v_at.(k) ~dst:ob.v_dst.(k) ob.v_pay.(k)
          done;
          vec_clear ob
        done);
    if m.v_sorted then
      for k = 0 to m.v_len - 1 do
        let d = m.v_dst.(k) in
        check_dst n d;
        vec_push t.inboxes.(d) ~at:m.v_at.(k) ~dst:d m.v_pay.(k)
      done
    else begin
      (* Index sort with the index as final tie-break = a stable sort by
         timestamp over the concatenation, i.e. (time, src, seq). *)
      let idx = Array.init m.v_len (fun k -> k) in
      Array.sort
        (fun a b ->
          let c = Float.compare m.v_at.(a) m.v_at.(b) in
          if c <> 0 then c else compare a b)
        idx;
      Array.iter
        (fun k ->
          let d = m.v_dst.(k) in
          check_dst n d;
          vec_push t.inboxes.(d) ~at:m.v_at.(k) ~dst:d m.v_pay.(k))
        idx
    end
  end

(* One shard's window body: deliver its inbox, step it to the bound,
   collect emissions.  Runs on whichever lane owns shard [i]. *)
let exec_body t h counts i =
  let s = t.steppers.(i) in
  let ob = t.outboxes.(i) in
  let emit ~dst ~at pay =
    (* [not (at >= h)] also rejects a NaN timestamp *)
    if t.enforce && not (at >= h) then
      raise
        (Causality_violation
           (Printf.sprintf
              "shard %d emitted a message at t=%g for shard %d inside the \
               window it promised to stay out of (bound %g): its real \
               latency is below its declared lookahead %g"
              i at dst h s.st_lookahead));
    vec_push ob ~at ~dst pay
  in
  let ib = t.inboxes.(i) in
  counts.(i) <-
    s.st_step ~inbox_at:ib.v_at ~inbox_pay:ib.v_pay ~inbox_len:ib.v_len
      ~upto:h ~emit

let barrier_check t h counts fed =
  let stepped = Array.fold_left ( + ) 0 counts in
  if stepped = 0 && fed = 0 && not (all_drained t) then
    raise
      (Stalled
         (Printf.sprintf
            "round %d at window bound %g made no progress: a stepper's \
             st_next moved backwards or its lookahead promise is \
             inconsistent"
            t.rounds h))

let run_serial t =
  let n = Array.length t.steppers in
  let counts = Array.make n 0 in
  let finished = ref false in
  while not !finished do
    let h = window_bound t in
    if h = infinity && all_drained t then finished := true
    else begin
      t.rounds <- t.rounds + 1;
      let fed = Array.fold_left (fun a ib -> a + ib.v_len) 0 t.inboxes in
      t.delivered <- t.delivered + fed;
      for i = 0 to n - 1 do
        exec_body t h counts i
      done;
      merge_and_deal t;
      barrier_check t h counts fed
    end
  done

(* Parallel driver: a *persistent* pool of worker domains, one barrier
   round-trip per window, synchronised with a mutex and condition
   variable (spawning domains per round — Parallel.run's model — was
   measured to forfeit the whole pipelining win on a million-session
   open-arrival cell: a window is a few ms, a Domain.spawn ~100us plus
   a stop-the-world handshake; and blocking beats spinning both on one
   core, where a spin burns the victim's own timeslice, and on many,
   where a condvar wake is microseconds against a multi-ms window).
   Lane l owns shards congruent to l mod lanes; the main domain is lane
   0 and also plays coordinator.  Worker failures are parked per shard
   and re-raised on the main domain for the lowest shard index — the
   same deterministic contract as Parallel.run. *)
let run_pool t ~lanes =
  let n = Array.length t.steppers in
  let counts = Array.make n 0 in
  let failures = Array.make n None in
  let bound = ref infinity in
  let mtx = Mutex.create () in
  let cv = Condition.create () in
  (* protected by [mtx]: the round workers should execute (-1 = shut
     down) and how many lanes are still inside it; [bound], [counts] and
     the outboxes piggyback on the lock for cross-domain visibility *)
  let round = ref 0 in
  let busy = ref 0 in
  let do_lane l =
    let h = !bound in
    let i = ref l in
    while !i < n do
      (try exec_body t h counts !i
       with e ->
         failures.(!i) <- Some (e, Printexc.get_raw_backtrace ());
         counts.(!i) <- 0);
      i := !i + lanes
    done
  in
  let worker wi () =
    let seen = ref 0 in
    let stop = ref false in
    while not !stop do
      Mutex.lock mtx;
      while !round = !seen do
        Condition.wait cv mtx
      done;
      let r = !round in
      Mutex.unlock mtx;
      if r < 0 then stop := true
      else begin
        do_lane (wi + 1);
        seen := r;
        Mutex.lock mtx;
        decr busy;
        if !busy = 0 then Condition.broadcast cv;
        Mutex.unlock mtx
      end
    done
  in
  let doms = Array.init (lanes - 1) (fun wi -> Domain.spawn (worker wi)) in
  let rnum = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock mtx;
      round := -1;
      Condition.broadcast cv;
      Mutex.unlock mtx;
      Array.iter Domain.join doms)
    (fun () ->
      let finished = ref false in
      while not !finished do
        let h = window_bound t in
        if h = infinity && all_drained t then finished := true
        else begin
          t.rounds <- t.rounds + 1;
          let fed = Array.fold_left (fun a ib -> a + ib.v_len) 0 t.inboxes in
          t.delivered <- t.delivered + fed;
          bound := h;
          incr rnum;
          Mutex.lock mtx;
          round := !rnum;
          busy := lanes - 1;
          Condition.broadcast cv;
          Mutex.unlock mtx;
          do_lane 0;
          Mutex.lock mtx;
          while !busy > 0 do
            Condition.wait cv mtx
          done;
          Mutex.unlock mtx;
          Array.iteri
            (fun i f ->
              match f with
              | Some (e, bt) ->
                  failures.(i) <- None;
                  Printexc.raise_with_backtrace e bt
              | None -> ())
            failures;
          merge_and_deal t;
          barrier_check t h counts fed
        end
      done)

let run ?(par = false) ?jobs t =
  let n = Array.length t.steppers in
  let lanes =
    if not (par && n > 1) then 1
    else match jobs with None -> n | Some j -> max 1 (min j n)
  in
  if lanes = 1 then run_serial t else run_pool t ~lanes
