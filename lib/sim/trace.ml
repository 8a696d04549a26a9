(* Structured event tracing with deterministic replay fingerprints.

   Storage is struct-of-arrays: eight parallel flat arrays indexed by a
   ring cursor, so recording an event allocates nothing and the GC never
   sees the hot path.  The digest is folded over every emitted event
   (not just the ones the ring still holds), so it fingerprints the
   whole run even when the buffer wraps.

   The digest (v2).  Each event contributes its eight fields, in the
   order ts, kind, cpu, tid, tag, cat, dur, arg, as eight 64-bit words:
   floats by their IEEE-754 bit patterns (Int64.bits_of_float), ints
   sign-extended (Int64.of_int), a missing category as -1.  Each word w
   is folded into the 64-bit state h by one step

     h <- (rotl h 23 lxor w) * K   mod 2^64,   K = 0x9E3779B97F4A7C15

   starting from h = 0x243F6A8885A308D3, and [digest] returns
   splitmix64's finaliser of h (shared with Rng, not copied).

   Why this shape.  K is odd, so each step is a bijection in h for a
   fixed w, and a bijection in w for a fixed h.  Changing any single
   field of any event therefore changes the state at that step, and no
   later step can map the two states back together: a single-field
   change always changes the digest.  A product carries differences
   only upward, so without the rotate a flip of bit 63 would stay in
   bit 63 for ever and a second bit-63 flip in a later field would
   cancel it; the rotate moves the high bits of h down to where the next
   word and product meet them.  The finaliser spreads the last words of
   the stream over every output bit.

   Equal digests do not prove bit-identical streams: two streams that
   differ in more than one field collide with probability about 2^-64,
   as for any 64-bit hash. *)

type kind =
  | Sched
  | Spawn
  | Resume
  | Suspend
  | Ctxsw
  | Ipi
  | Syscall
  | Domain_cross
  | Fault
  | Charge
  | Dcs_push
  | Dcs_pop
  | Dcs_adjust
  | Xtag_access
  | Priv_op
  | Cap_revoke
  | Cap_use

(* New kinds must be appended, never inserted: [kind_index] feeds the
   replay digest, so renumbering an existing kind shifts every pinned
   golden digest. *)
let all_kinds =
  [ Sched; Spawn; Resume; Suspend; Ctxsw; Ipi; Syscall; Domain_cross; Fault; Charge
  ; Dcs_push; Dcs_pop; Dcs_adjust; Xtag_access; Priv_op; Cap_revoke; Cap_use ]

let kind_index = function
  | Sched -> 0
  | Spawn -> 1
  | Resume -> 2
  | Suspend -> 3
  | Ctxsw -> 4
  | Ipi -> 5
  | Syscall -> 6
  | Domain_cross -> 7
  | Fault -> 8
  | Charge -> 9
  | Dcs_push -> 10
  | Dcs_pop -> 11
  | Dcs_adjust -> 12
  | Xtag_access -> 13
  | Priv_op -> 14
  | Cap_revoke -> 15
  | Cap_use -> 16

let kind_name = function
  | Sched -> "sched"
  | Spawn -> "spawn"
  | Resume -> "resume"
  | Suspend -> "suspend"
  | Ctxsw -> "ctxsw"
  | Ipi -> "ipi"
  | Syscall -> "syscall"
  | Domain_cross -> "domain-cross"
  | Fault -> "fault"
  | Charge -> "charge"
  | Dcs_push -> "dcs-push"
  | Dcs_pop -> "dcs-pop"
  | Dcs_adjust -> "dcs-adjust"
  | Xtag_access -> "xtag-access"
  | Priv_op -> "priv-op"
  | Cap_revoke -> "cap-revoke"
  | Cap_use -> "cap-use"

(* Built once: the sink and [events] decode every stored index. *)
let kinds_by_index = Array.of_list all_kinds

let categories_by_index = Array.of_list Breakdown.all_categories

let kind_of_index i = kinds_by_index.(i)

let category_of_index ci = if ci < 0 then None else Some categories_by_index.(ci)

type event = {
  e_ts : float;
  e_kind : kind;
  e_cpu : int;
  e_tid : int;
  e_tag : int;
  e_cat : Breakdown.category option;
  e_dur : float;
  e_arg : int;
}

type t = {
  on : bool;
  cap : int;
  ts : float array;
  kinds : int array;
  cpus : int array;
  tids : int array;
  tags : int array;
  cats : int array; (* Breakdown.category_index, -1 for none *)
  durs : float array;
  args : int array;
  mutable head : int; (* next write slot *)
  mutable len : int; (* valid entries, <= cap *)
  mutable count : int; (* lifetime emits *)
  (* The digest state: one 64-bit word in an 8-byte [Bytes.t], read and
     written through the unboxed primitives below (the idiom of
     [Rng.t]).  A [mutable int64] field would box a fresh value, and
     write-barrier the store, on every event. *)
  state : Bytes.t;
  (* Optional online observer (the invariant checker).  Called after the
     event is digested and stored; it cannot influence the digest or the
     ring, only observe the stream. *)
  mutable sink : (event -> unit) option;
}

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let seed = 0x243F6A8885A308D3L

let[@inline] mix h w =
  let r = Int64.logor (Int64.shift_left h 23) (Int64.shift_right_logical h 41) in
  Int64.mul (Int64.logxor r w) 0x9E3779B97F4A7C15L

let make ~on ~capacity =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  let state = Bytes.create 8 in
  set_state state 0 seed;
  {
    on;
    cap = capacity;
    ts = Array.make capacity 0.;
    kinds = Array.make capacity 0;
    cpus = Array.make capacity (-1);
    tids = Array.make capacity (-1);
    tags = Array.make capacity (-1);
    cats = Array.make capacity (-1);
    durs = Array.make capacity 0.;
    args = Array.make capacity 0;
    head = 0;
    len = 0;
    count = 0;
    state;
    sink = None;
  }

let null = make ~on:false ~capacity:1

let create ?(capacity = 65536) () = make ~on:true ~capacity

let enabled t = t.on

let set_sink t sink = t.sink <- sink

(* Out-of-line sink dispatch: the event record is only materialised
   when an observer is installed, so the sink-free hot path pays one
   load and branch. *)
let feed_sink t ~ts ~ki ~cpu ~tid ~tag ~ci ~dur ~arg =
  match t.sink with
  | None -> ()
  | Some f ->
      f
        {
          e_ts = ts;
          e_kind = kind_of_index ki;
          e_cpu = cpu;
          e_tid = tid;
          e_tag = tag;
          e_cat = category_of_index ci;
          e_dur = dur;
          e_arg = arg;
        }

(* Fold one event into the digest, store it in the ring and hand it to
   the sink: the whole of every emit entry point, inlined into each so
   the fold runs in unboxed registers.  [head] is always a valid index
   (< cap, every array is [cap] long), so the stores skip the bounds
   checks; the wrap is a compare, not a [mod]. *)
let[@inline] record t ~ts ~ki ~cpu ~tid ~tag ~ci ~dur ~arg =
  let h = get_state t.state 0 in
  let h = mix h (Int64.bits_of_float ts) in
  let h = mix h (Int64.of_int ki) in
  let h = mix h (Int64.of_int cpu) in
  let h = mix h (Int64.of_int tid) in
  let h = mix h (Int64.of_int tag) in
  let h = mix h (Int64.of_int ci) in
  let h = mix h (Int64.bits_of_float dur) in
  set_state t.state 0 (mix h (Int64.of_int arg));
  let i = t.head in
  Array.unsafe_set t.ts i ts;
  Array.unsafe_set t.kinds i ki;
  Array.unsafe_set t.cpus i cpu;
  Array.unsafe_set t.tids i tid;
  Array.unsafe_set t.tags i tag;
  Array.unsafe_set t.cats i ci;
  Array.unsafe_set t.durs i dur;
  Array.unsafe_set t.args i arg;
  let i1 = i + 1 in
  t.head <- (if i1 = t.cap then 0 else i1);
  if t.len < t.cap then t.len <- t.len + 1;
  t.count <- t.count + 1;
  match t.sink with
  | None -> ()
  | Some _ -> feed_sink t ~ts ~ki ~cpu ~tid ~tag ~ci ~dur ~arg

let emit t ~ts ?(cpu = -1) ?(tid = -1) ?(tag = -1) ?cat ?(dur = 0.) ?(arg = 0) kind =
  if t.on then
    let ci = match cat with None -> -1 | Some c -> Breakdown.category_index c in
    record t ~ts ~ki:(kind_index kind) ~cpu ~tid ~tag ~ci ~dur ~arg

(* Lean hot-path variants of [emit], digest- and ring-identical to the
   equivalent [emit] call.  Their call sites fire millions of times per
   run, and there the general entry point's optional arguments (a
   [Some] box per present option, a boxed default per absent one) were
   measurable.  Every defaulted field still folds into the digest as
   the same -1/0/0.0 the general path folds. *)

(* [emit t ~ts kind]: every optional field defaulted (the engine's
   scheduling events). *)
let emit_bare t ~ts kind =
  if t.on then
    record t ~ts ~ki:(kind_index kind) ~cpu:(-1) ~tid:(-1) ~tag:(-1) ~ci:(-1) ~dur:0.
      ~arg:0

(* [emit t ~ts ~cpu ~tid ~cat ~dur Charge] (tag and arg defaulted): the
   cost-attribution event every [Kernel.charge] emits. *)
let emit_charge t ~ts ~cpu ~tid ~cat ~dur =
  if t.on then
    record t ~ts ~ki:(kind_index Charge) ~cpu ~tid ~tag:(-1)
      ~ci:(Breakdown.category_index cat) ~dur ~arg:0

(* [emit t ~ts ~cpu ~tid ~arg kind] (tag, category and duration
   defaulted): the kernel's Ctxsw, Ipi, Syscall and Spawn events. *)
let emit_thread t ~ts ~cpu ~tid ~arg kind =
  if t.on then
    record t ~ts ~ki:(kind_index kind) ~cpu ~tid ~tag:(-1) ~ci:(-1) ~dur:0. ~arg

let total t = t.count

let dropped t = t.count - t.len

let digest t = Rng.finalise (get_state t.state 0)

let digest_hex t = Printf.sprintf "%016Lx" (digest t)

let nth_event t j =
  let i = (t.head - t.len + j + t.cap + t.cap) mod t.cap in
  {
    e_ts = t.ts.(i);
    e_kind = kind_of_index t.kinds.(i);
    e_cpu = t.cpus.(i);
    e_tid = t.tids.(i);
    e_tag = t.tags.(i);
    e_cat = category_of_index t.cats.(i);
    e_dur = t.durs.(i);
    e_arg = t.args.(i);
  }

let events t = List.init t.len (nth_event t)

(* --- Chrome trace_event export --- *)

(* chrome://tracing timestamps are microseconds; we keep sub-ns precision
   with six fractional digits. *)
let us ns = ns /. 1000.

let add_chrome_event buf ev ~first =
  if not first then Buffer.add_string buf ",\n";
  let name =
    match (ev.e_kind, ev.e_cat) with
    | Charge, Some c -> Breakdown.category_name c
    | k, _ -> kind_name k
  in
  let pid = if ev.e_cpu < 0 then 0 else ev.e_cpu in
  let tid = if ev.e_tid < 0 then 0 else ev.e_tid in
  (match ev.e_kind with
  | Charge ->
      Buffer.add_string buf
        (Printf.sprintf
           {|{"name":"%s","cat":"%s","ph":"X","ts":%.6f,"dur":%.6f,"pid":%d,"tid":%d,"args":{"tag":%d,"arg":%d}}|}
           name (kind_name ev.e_kind) (us ev.e_ts) (us ev.e_dur) pid tid ev.e_tag
           ev.e_arg)
  | _ ->
      Buffer.add_string buf
        (Printf.sprintf
           {|{"name":"%s","cat":"%s","ph":"i","s":"t","ts":%.6f,"pid":%d,"tid":%d,"args":{"tag":%d,"arg":%d}}|}
           name (kind_name ev.e_kind) (us ev.e_ts) pid tid ev.e_tag ev.e_arg))

let to_chrome_string t =
  let buf = Buffer.create (256 * (t.len + 2)) in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  for j = 0 to t.len - 1 do
    add_chrome_event buf (nth_event t j) ~first:(j = 0)
  done;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf

let write_chrome oc t = output_string oc (to_chrome_string t)

let pp_event ppf ev =
  Fmt.pf ppf "%.1fns %s cpu=%d tid=%d tag=%d%a%a arg=%d" ev.e_ts
    (kind_name ev.e_kind) ev.e_cpu ev.e_tid ev.e_tag
    (fun ppf -> function
      | None -> ()
      | Some c -> Fmt.pf ppf " cat=%s" (Breakdown.category_name c))
    ev.e_cat
    (fun ppf d -> if d > 0. then Fmt.pf ppf " dur=%.1f" d)
    ev.e_dur ev.e_arg
