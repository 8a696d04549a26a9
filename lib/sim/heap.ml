(* Event queue keyed by (time, sequence number): a near/far two-tier
   queue split at a time [split].

   The sequence number breaks ties so that events scheduled for the same
   instant fire in insertion order, which keeps the discrete-event engine
   deterministic.

   Why two tiers.  The engine's queue is lopsided: on the Fig. 8 Linux
   cell ~86 entries are queued at the average push, most of them ~1.2 ms
   scheduler-imbalance stall timers, while 89% of pushes land at rank 3
   or earlier and 93% are due within 100 us.  In a plain binary heap
   nearly every push climbs the full depth and nearly every pop sifts a
   far-future entry back down.  Here only far-future entries go through
   a heap:

   - the *near tier* is an ascending sorted ring of up to [near_cap]
     entries, the ones before [split].  A push that is the latest entry appends
     at the tail in O(1) (the common case when the whole queue is a
     handful of entries, as on the dIPC cells); any other push is an
     insertion from the head, short for a near-future push.  A pop takes
     the head;
   - the *far tier* is a binary heap of the entries at or after [split];
   - *refill*: when the near tier is empty, a pop first moves the
     earliest far entries in — at least [refill_count], then the rest of
     the last equal-time run — and raises [split] to the next far time;
   - *spill*: a push into a full near tier that is earlier than its
     latest entry first moves the ring's latest equal-time run to the
     far heap and lowers [split] to its time; a later one goes to the
     far heap itself and lowers [split] to its own time.

   Invariant: every near entry precedes every far entry in (time, seq)
   order — near entries are at or before [split], far entries at or
   after it, and a near entry at [split] itself was pushed before every
   far entry there.  A push goes near exactly when its time is below
   [split]; it carries the largest sequence number so far, so it
   belongs after every queued entry at its own time, and a push at
   [split] goes far, behind both tiers' entries at that time.  Pops
   therefore come out in exactly the order of a single heap.  (Near
   entries sit at [split] after a full ring sends a push at its latest
   time to the far heap, or after a refill stops inside an equal-time
   run longer than the ring.)

   Representation.  Both tiers order unboxed keys only: flat [float
   array]s of times, and [int array]s packing each entry's sequence
   number above its payload's [slot] number.  Sequence numbers are
   unique, so comparing two packed keys compares their sequence numbers;
   the slot bits never decide.  Each payload sits still in its slot of
   [payloads] from push to pop, whichever tier its key is in, so a push
   or a pop costs exactly one write-barrier store, a refill or a spill
   none, and the heap's sift loops move only unboxed keys.

   Free slots need no array of their own: the last [nfree] positions of
   [keys] hold them, a stack growing down from the end.  The far heap
   fills [keys] from the front, and the two ranges cannot meet: far
   entries plus free slots number at most the array's length, less the
   near entries.  A push takes the free slot at the stack's top, a pop
   puts its slot back there, and [grow] puts the fresh slot numbers
   [cap .. ncap-1] at positions [cap .. ncap-1], so a slot is recycled
   only after its payload has been popped and nulled.

   The far heap's loops percolate a hole instead of swapping: the moving
   entry is held in locals and written once at its final position.  The
   loops keep the arrays in locals and inline the comparisons — without
   flambda a per-level helper call would cost more than this
   representation saves.

   Payloads are stored untyped behind the typed ['a t] interface so a
   vacated slot can be nulled with a type-neutral sentinel: a popped
   payload (an engine continuation, i.e. a whole captured stack) must not
   stay reachable from the queue until the slot happens to be reused. *)

(* The stored form of a payload.  A record type rather than [Obj.t]:
   the compiler then knows the array holds no unboxed floats and
   accesses it directly, without the run-time float-array check (and
   its dead float-boxing branch) of a polymorphic array. *)
type any = { _any : unit }

type 'a t = {
  (* Far tier: a binary heap in positions [0 .. far-1].  Both arrays
     are as long as [payloads], so the far heap never needs growing on
     its own; the free slots are the last [nfree] positions of [keys]. *)
  mutable times : float array;
  mutable keys : int array;
  mutable payloads : any array;
  mutable far : int;
  (* Pushes so far, less those before the last renumbering: the next
     sequence number. *)
  mutable next_seq : int;
  (* Near tier: [near] entries in ring positions [head ..], ascending. *)
  ntimes : float array;
  nkeys : int array;
  mutable head : int;
  mutable near : int;
  (* [split] in a one-slot [floatarray]: a [mutable float] field of
     this mixed record would box on every store. *)
  split : floatarray;
  mutable nfree : int;
  (* Keys sent to the far heap by a push or a spill. *)
  mutable far_pushes : int;
  (* Pushes before the last renumbering, less the entries it kept. *)
  mutable renumbered : int;
}

(* A key is [(seq lsl slot_bits) lor slot]: up to 2^24 queued entries,
   and 2^38 pushes before the sequence numbers are renumbered. *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let max_seq = max_int lsr slot_bits

(* The ring's capacity (a power of two) and the least number of entries
   a refill moves: constants, not options, at the values the design was
   measured with on the Fig. 8 cells (EXPERIMENTS.md "Near/far event
   queue"). *)
let near_cap = 32

let near_mask = near_cap - 1

let refill_count = 8

(* Sentinel for empty payload slots.  An immediate value: holds nothing
   alive, and [Array.make] with it builds a uniform (non-float) array. *)
let nil : any = Obj.magic 0

let create () =
  {
    times = [||];
    keys = [||];
    payloads = [||];
    far = 0;
    next_seq = 0;
    ntimes = Array.create_float near_cap;
    nkeys = Array.make near_cap 0;
    head = 0;
    near = 0;
    split = Float.Array.make 1 infinity;
    nfree = 0;
    far_pushes = 0;
    renumbered = 0;
  }

let length h = h.near + h.far

let is_empty h = h.near lor h.far = 0

let near_length h = h.near

let pushes h = h.renumbered + h.next_seq

let far_pushes h = h.far_pushes

(* Slots a queue takes at its first push: a Fig. 8 cell's set-up
   queues 96 or 288 spawns, which doubled the queue four or five times
   from 16.  No more than 256, the largest array the minor heap takes:
   an array past it is allocated in the major heap, where every store
   of a young payload adds a remembered-set entry until the next minor
   collection.  An [oltp_dipc] rep runs no minor collection, so a
   512-slot start grew its remembered set to 8 MB (peak RSS +5 MB). *)
let initial_slots = 256

(* Double the slot capacity of a queue whose slots are all taken.  Every
   slot is live, so the old payload array is copied whole; the far
   heap's live prefix is copied, and the fresh slot numbers fill the
   new positions of [keys], its free range.  Growth past
   [initial_slots] is rare but kept cheap: [times] is allocated
   uninitialised, and [keys] is copied by a typed loop, which stores
   plain ints where [Array.blit] would go through the write barrier
   once the array is in the major heap. *)
let[@inline never] grow h =
  let cap = Array.length h.payloads in
  if cap > slot_mask then failwith "Heap.push: more than 2^24 queued entries";
  let ncap = if cap = 0 then initial_slots else min (2 * cap) (slot_mask + 1) in
  let far = h.far in
  let times = Array.create_float ncap in
  Array.blit h.times 0 times 0 far;
  let keys = Array.make ncap 0 and okeys = h.keys in
  for i = 0 to far - 1 do
    Array.unsafe_set keys i (Array.unsafe_get okeys i)
  done;
  for i = cap to ncap - 1 do
    Array.unsafe_set keys i i
  done;
  let payloads = Array.make ncap nil in
  Array.blit h.payloads 0 payloads 0 cap;
  h.times <- times;
  h.keys <- keys;
  h.payloads <- payloads;
  h.nfree <- ncap - cap

(* The sequence numbers ran out: give the live entries fresh ones,
   [0 .. length-1], in pop order — the near entries in ring order, then
   the far entries in their current key order.  The queue only ever
   compares sequence numbers with each other, and near entries precede
   far ones, so every future pop is unchanged. *)
let[@inline never] renumber h =
  let nkeys = h.nkeys in
  for i = 0 to h.near - 1 do
    let p = (h.head + i) land near_mask in
    nkeys.(p) <- (i lsl slot_bits) lor (nkeys.(p) land slot_mask)
  done;
  let keys = h.keys in
  let order = Array.init h.far Fun.id in
  Array.sort (fun a b -> compare keys.(a) keys.(b)) order;
  Array.iteri
    (fun rank pos ->
      keys.(pos) <-
        ((h.near + rank) lsl slot_bits) lor (keys.(pos) land slot_mask))
    order;
  let live = h.near + h.far in
  h.renumbered <- h.renumbered + h.next_seq - live;
  h.next_seq <- live

(* Add a key to the far heap, percolating the hole up from the new
   position: parents later than the new entry move down one level; the
   new key is stored once at the end.  Every index is below [far], at
   most the arrays' length (maintained by [grow]), so the accesses skip
   the bounds checks. *)
let far_push h time key =
  h.far_pushes <- h.far_pushes + 1;
  let times = h.times and keys = h.keys in
  let i = ref h.far in
  h.far <- h.far + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let c = !i in
    let p = (c - 1) / 2 in
    let pt = Array.unsafe_get times p in
    if time < pt || (time = pt && key < Array.unsafe_get keys p) then begin
      Array.unsafe_set times c pt;
      Array.unsafe_set keys c (Array.unsafe_get keys p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set keys !i key

(* Drop the far heap's root: percolate the hole at the root down, moving
   the earlier child up each level, until the displaced last entry
   fits. *)
let far_drop_root h =
  let size = h.far - 1 in
  h.far <- size;
  let times = h.times and keys = h.keys in
  let ltime = Array.unsafe_get times size
  and lkey = Array.unsafe_get keys size in
  if size > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c = !i in
      let l = (2 * c) + 1 in
      if l >= size then continue := false
      else begin
        (* Pick the earlier of the two children. *)
        let r = l + 1 in
        let lt = Array.unsafe_get times l in
        let m, mt =
          if
            r < size
            && (let rt = Array.unsafe_get times r in
                rt < lt
                || (rt = lt && Array.unsafe_get keys r < Array.unsafe_get keys l))
          then (r, Array.unsafe_get times r)
          else (l, lt)
        in
        if mt < ltime || (mt = ltime && Array.unsafe_get keys m < lkey) then begin
          Array.unsafe_set times c mt;
          Array.unsafe_set keys c (Array.unsafe_get keys m);
          i := m
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i ltime;
    Array.unsafe_set keys !i lkey
  end

(* Make room in a full near tier: move its latest equal-time run to the
   far heap and lower [split] to that time.  The moved keys follow every
   near entry left and precede every far entry, and the far heap orders
   them among themselves by sequence number.  They go in ascending
   order, so none climbs past the ones before it. *)
let[@inline never] spill h =
  let ntimes = h.ntimes and nkeys = h.nkeys in
  let last = h.head + h.near - 1 in
  let t = Array.unsafe_get ntimes (last land near_mask) in
  let first = ref last in
  while
    !first > h.head
    && Array.unsafe_get ntimes ((!first - 1) land near_mask) = t
  do
    decr first
  done;
  for p = !first to last do
    far_push h t (Array.unsafe_get nkeys (p land near_mask))
  done;
  h.near <- !first - h.head;
  Float.Array.unsafe_set h.split 0 t

(* A push before [split] found the near tier full.  One that is not
   earlier than the ring's latest entry goes to the far heap by itself,
   [split] dropping to its time: it follows every near entry, those at
   its own time included (they were pushed first), and precedes every
   far one, and nothing moves.  The engine's set-up, spawning every
   thread at time 0, takes this path past the 32nd.  An earlier push needs the room: spill, and
   it goes near, since [split] is then the spilled time, later than the
   push.  Returns whether the push goes near. *)
let[@inline never] make_room h time =
  let last = Array.unsafe_get h.ntimes ((h.head + h.near - 1) land near_mask) in
  if time >= last then begin
    Float.Array.unsafe_set h.split 0 time;
    false
  end
  else begin
    spill h;
    true
  end

(* Fill the empty near tier from the far heap: at least [refill_count]
   entries, then the rest of the last one's equal-time run as far as
   the ring holds it, and raise [split] to the next far time. *)
let[@inline never] refill h =
  let ntimes = h.ntimes and nkeys = h.nkeys in
  h.head <- 0;
  let n = ref 0 in
  while
    h.far > 0
    && !n < near_cap
    && (!n < refill_count
       || Array.unsafe_get h.times 0 = Array.unsafe_get ntimes (!n - 1))
  do
    Array.unsafe_set ntimes !n (Array.unsafe_get h.times 0);
    Array.unsafe_set nkeys !n (Array.unsafe_get h.keys 0);
    far_drop_root h;
    incr n
  done;
  h.near <- !n;
  Float.Array.unsafe_set h.split 0
    (if h.far > 0 then Array.unsafe_get h.times 0 else infinity)

(* Add a key earlier than [split] to the near tier, which has room.  The
   latest entry appends at the tail; any other is inserted from the
   head: the hole starts one place before the head and moves forward
   past every entry not later than [time], so equal times stay in push
   order.  The loop stops at the tail at the latest, which is later. *)
let near_insert h time key =
  let ntimes = h.ntimes and nkeys = h.nkeys in
  let n = h.near and head = h.head in
  h.near <- n + 1;
  let tail = (head + n) land near_mask in
  if n = 0 || Array.unsafe_get ntimes ((tail - 1) land near_mask) <= time
  then begin
    Array.unsafe_set ntimes tail time;
    Array.unsafe_set nkeys tail key
  end
  else begin
    let head = (head - 1) land near_mask in
    h.head <- head;
    let i = ref head in
    let continue = ref true in
    while !continue do
      let next = (!i + 1) land near_mask in
      let t = Array.unsafe_get ntimes next in
      if t <= time then begin
        Array.unsafe_set ntimes !i t;
        Array.unsafe_set nkeys !i (Array.unsafe_get nkeys next);
        i := next
      end
      else continue := false
    done;
    Array.unsafe_set ntimes !i time;
    Array.unsafe_set nkeys !i key
  end

let push h ~time payload =
  if h.nfree = 0 then grow h;
  if h.next_seq > max_seq then renumber h;
  let keys = h.keys in
  let slot = Array.unsafe_get keys (Array.length keys - h.nfree) in
  h.nfree <- h.nfree - 1;
  let key = (h.next_seq lsl slot_bits) lor slot in
  h.next_seq <- h.next_seq + 1;
  Array.unsafe_set h.payloads slot (Obj.magic payload : any);
  if
    time < Float.Array.unsafe_get h.split 0
    && (h.near < near_cap || make_room h time)
  then near_insert h time key
  else far_push h time key

(* Remove the near tier's head, refilling it first if it is empty, and
   return its payload: the slot is nulled and freed. *)
let remove_top h =
  if h.near = 0 then refill h;
  let head = h.head in
  let slot = Array.unsafe_get h.nkeys head land slot_mask in
  h.head <- (head + 1) land near_mask;
  h.near <- h.near - 1;
  let payload = Array.unsafe_get h.payloads slot in
  Array.unsafe_set h.payloads slot nil;
  let nfree = h.nfree + 1 in
  h.nfree <- nfree;
  let keys = h.keys in
  Array.unsafe_set keys (Array.length keys - nfree) slot;
  payload

(* The earliest entry is the near head, or the far root when the near
   tier is empty (before the refill a pop does). *)
let top_time h =
  if h.near > 0 then Array.unsafe_get h.ntimes h.head
  else if h.far > 0 then Array.unsafe_get h.times 0
  else invalid_arg "Heap.top_time: empty heap"

let pop h =
  if is_empty h then None
  else begin
    let time = top_time h in
    let payload : 'a = Obj.magic (remove_top h) in
    Some (time, payload)
  end

let pop_min h =
  if is_empty h then invalid_arg "Heap.pop_min: empty heap";
  (Obj.magic (remove_top h) : 'a)
