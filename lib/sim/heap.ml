(* Binary min-heap keyed by (time, sequence number).

   The sequence number breaks ties so that events scheduled for the same
   instant fire in insertion order, which keeps the discrete-event engine
   deterministic.

   Representation: the heap order lives in two parallel arrays of
   unboxed keys — [times], a flat float array, and [keys], an int array
   packing each entry's sequence number above its payload's [slot]
   number — while each payload sits still in its slot of [payloads].
   Sequence numbers are unique, so comparing two packed keys compares
   their sequence numbers; the slot bits never decide.  [times] being
   flat, a sift comparison reads an unboxed float instead of chasing
   the boxed [time] field of a mixed record; and since no sift level
   moves a payload, no sift level goes through the GC write barrier.  A
   payload is written once on push and nulled once on pop: one barrier
   store each, however deep the heap (~7 levels for the engine's
   typical ~100 queued events).

   Free slots need no separate stack: positions [size .. capacity-1] of
   [keys], past the live entries, hold exactly the free slot numbers.
   A push takes the one at position [size] (the position it is about to
   occupy); a pop writes the root's freed slot to the position the heap
   just vacated.  Growth appends fresh slot numbers to the free range,
   so a slot is recycled only after its payload has been popped and
   nulled.

   Both sift loops percolate a hole instead of swapping: the moving
   entry is held in locals and written once at its final position.  The
   loops keep the arrays in locals and inline the comparisons — without
   flambda a per-level helper call would cost more than this
   representation saves.

   Payloads are stored untyped behind the typed ['a t] interface so a
   vacated slot can be nulled with a type-neutral sentinel: a popped
   payload (an engine continuation, i.e. a whole captured stack) must not
   stay reachable from the heap until the slot happens to be reused. *)

(* The stored form of a payload.  A record type rather than [Obj.t]:
   the compiler then knows the array holds no unboxed floats and
   accesses it directly, without the run-time float-array check (and
   its dead float-boxing branch) of a polymorphic array. *)
type any = { _any : unit }

type 'a t = {
  mutable times : float array;
  mutable keys : int array;
  mutable payloads : any array;
  mutable size : int;
  mutable next_seq : int;
}

(* A key is [(seq lsl slot_bits) lor slot]: up to 2^24 queued entries,
   and 2^38 pushes before the sequence numbers are renumbered. *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let max_seq = max_int lsr slot_bits

(* Sentinel for empty payload slots.  An immediate value: holds nothing
   alive, and [Array.make] with it builds a uniform (non-float) array. *)
let nil : any = Obj.magic 0

let create () =
  { times = [||]; keys = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* Double the arrays of a full heap.  Every slot is live when the heap
   is full, so the old payload array is copied whole and positions
   [size ..] of the new [keys] get the fresh slot numbers.  Growth is on
   every engine's set-up path (a run spawning a few hundred threads
   doubles the heap five times), so it is kept cheap: [times] is
   allocated uninitialised, and [keys] is copied by a typed loop, which
   stores plain ints where [Array.blit] would go through the write
   barrier once the array is in the major heap. *)
let[@inline never] grow h =
  let cap = h.size in
  if cap > slot_mask then failwith "Heap.push: more than 2^24 queued entries";
  let ncap = if cap = 0 then 16 else min (2 * cap) (slot_mask + 1) in
  let times = Array.create_float ncap in
  Array.blit h.times 0 times 0 cap;
  let keys = Array.make ncap 0 and okeys = h.keys in
  for i = 0 to cap - 1 do
    Array.unsafe_set keys i (Array.unsafe_get okeys i)
  done;
  for i = cap to ncap - 1 do
    Array.unsafe_set keys i i
  done;
  let payloads = Array.make ncap nil in
  Array.blit h.payloads 0 payloads 0 cap;
  h.times <- times;
  h.keys <- keys;
  h.payloads <- payloads

(* The sequence numbers ran out: give the live entries fresh ones,
   [0 .. size-1], in their current order.  The heap only ever compares
   sequence numbers with each other, so every future pop is unchanged. *)
let[@inline never] renumber h =
  let keys = h.keys in
  let order = Array.init h.size Fun.id in
  Array.sort (fun a b -> compare keys.(a) keys.(b)) order;
  Array.iteri
    (fun rank pos ->
      keys.(pos) <- (rank lsl slot_bits) lor (keys.(pos) land slot_mask))
    order;
  h.next_seq <- h.size

(* Every index in the sift loops is bounded by [size] (itself at most
   the arrays' length, maintained by [grow]), and every slot number is
   below the payload array's length, so the array accesses skip the
   bounds checks. *)
let push h ~time payload =
  if h.size = Array.length h.keys then grow h;
  if h.next_seq > max_seq then renumber h;
  let times = h.times and keys = h.keys in
  let slot = Array.unsafe_get keys h.size in
  let key = (h.next_seq lsl slot_bits) lor slot in
  h.next_seq <- h.next_seq + 1;
  Array.unsafe_set h.payloads slot (Obj.magic payload : any);
  (* Percolate the hole up from the new position: parents later than the
     new entry move down one level; the new keys are stored once at the
     end. *)
  let i = ref h.size in
  h.size <- h.size + 1;
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

(* Remove the root and return its payload: null and free the root's
   slot, then percolate the hole at the root down, moving the earlier
   child up each level, until the displaced last entry fits. *)
let remove_top h =
  let size = h.size - 1 in
  h.size <- size;
  let times = h.times and keys = h.keys in
  let freed = Array.unsafe_get keys 0 land slot_mask in
  let payload = Array.unsafe_get h.payloads freed in
  Array.unsafe_set h.payloads freed nil;
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
  end;
  Array.unsafe_set keys size freed;
  payload

let pop h =
  if h.size = 0 then None
  else begin
    let time = h.times.(0) in
    let payload : 'a = Obj.magic (remove_top h) in
    Some (time, payload)
  end

let top_time h =
  if h.size = 0 then invalid_arg "Heap.top_time: empty heap";
  Array.unsafe_get h.times 0

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  (Obj.magic (remove_top h) : 'a)
