(* Per-hardware-thread software-managed APL cache (Secs. 4.1, 4.3).

   The cache holds the access-grant information of recently executed
   domains and maps each cached domain tag to a small hardware domain tag
   (5 bits for the 32-entry cache).  dIPC's extension (Sec. 4.3) is a
   privileged instruction that retrieves the hardware tag of any cached
   domain; the hardware tag then indexes the per-thread process-tracking
   array (Sec. 6.1.2).

   The cache is software-managed: on a miss the hardware raises an
   exception and the OS refills it.  The machine model supports both a
   strict mode (fault on miss, as real hardware would) and an auto-fill
   mode that charges a refill cost, which is what the paper's evaluation
   assumes ("this event never happens on the presented benchmarks",
   Sec. 7.5).

   [lookup] is the hot path (it runs on every domain crossing): a scan
   of the 32 resident tags from slot 0, in a flat int array, returning
   the smallest slot holding the tag.  Slots fill from 0 upwards, so the
   few domains of a warm call path sit in the first slots and the scan
   stops within a handful of compares.  [install] keeps the original LRU
   victim scan — refills are the cold path.  Tag [-1] marks an empty
   slot and is never resident. *)

let capacity = 32

type t = {
  tags : int array; (* index = hardware domain tag; -1 = empty *)
  last_use : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable refills : int;
}

let create () =
  {
    tags = Array.make capacity (-1);
    last_use = Array.make capacity 0;
    clock = 0;
    hits = 0;
    misses = 0;
    refills = 0;
  }

let reset t =
  Array.fill t.tags 0 capacity (-1);
  Array.fill t.last_use 0 capacity 0;
  t.clock <- 0;
  (* Statistics must not bleed across scenario runs that reuse a machine. *)
  t.hits <- 0;
  t.misses <- 0;
  t.refills <- 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Smallest slot holding [tag], or [capacity] if none does. *)
let slot_of t tag =
  let i = ref 0 in
  while !i < capacity && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  !i

(* Hardware tag of [tag] if cached, else -1: [lookup] without the
   option box, for the machine's crossing path. *)
let find t tag =
  let i = if tag = -1 then capacity else slot_of t tag in
  if i < capacity then begin
    t.hits <- t.hits + 1;
    t.last_use.(i) <- tick t;
    i
  end
  else begin
    t.misses <- t.misses + 1;
    -1
  end

let lookup t tag =
  let i = find t tag in
  if i >= 0 then Some i else None

(* Install [tag], evicting the least-recently-used entry; returns the
   hardware tag it landed on. *)
let install t tag =
  let victim = ref 0 in
  for i = 0 to capacity - 1 do
    let v = !victim in
    if t.tags.(i) = -1 && t.tags.(v) <> -1 then victim := i
    else if t.tags.(i) <> -1 && t.tags.(v) <> -1 && t.last_use.(i) < t.last_use.(v)
    then victim := i
  done;
  let v = !victim in
  t.tags.(v) <- tag;
  t.last_use.(v) <- tick t;
  t.refills <- t.refills + 1;
  v

(* Lookup-or-install used by the machine in auto-fill mode. *)
let ensure t tag =
  let i = find t tag in
  if i >= 0 then (i, true) else (install t tag, false)

(* [ensure] without the pair: the machine only needs the hit bit. *)
let ensure_hit t tag =
  find t tag >= 0
  || begin
       ignore (install t tag);
       false
     end

let stats t = (t.hits, t.misses, t.refills)

let resident_tags t =
  Array.to_list t.tags |> List.filter (fun tag -> tag >= 0)
