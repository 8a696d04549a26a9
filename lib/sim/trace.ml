(* Structured event tracing with deterministic replay fingerprints.

   Storage is struct-of-arrays: eight parallel flat arrays indexed by a
   ring cursor, so recording an event allocates nothing and the GC never
   sees the hot path.  The digest is folded over every emitted event
   (not just the ones the ring still holds), so it fingerprints the
   whole run even when the buffer wraps.

   The digest (v3).  Each event's eight fields, ts, kind, cpu, tid, tag,
   cat, dur and arg, are read as 64-bit words w_1..w_8: floats by their
   IEEE-754 bit patterns (Int64.bits_of_float), ints sign-extended
   (Int64.of_int), a missing category as -1.  They are premixed, each
   by its own odd constant K_i, into one event word

     e = sum_i (w_i lxor (w_i lsr 32)) * K_i   mod 2^64

   and e is chained into the 64-bit state h by one step per event

     h <- (rotl h 23 lxor e) * K   mod 2^64,   K = 0x9E3779B97F4A7C15

   starting from h = 0x243F6A8885A308D3; [digest] returns splitmix64's
   finaliser of h (shared with Rng, not copied).

   Why this shape.  Each premix term is a bijection of its word (an
   xorshift, then a product by an odd constant), so changing any single
   field changes e; the chain step is a bijection in h for a fixed e and
   in e for a fixed h, so the state differs from that event on and no
   later step maps the two states back together: a single-field change
   always changes the digest.  The xorshift matters: with plain w * K_i
   a flip of bit 63 stays in bit 63 (2^63 * K_i = 2^63), so flipping
   bit 63 of two fields of one event would cancel in the sum.  The
   rotate does the same job across events, moving the high bits of h
   down to where the next word and product meet them, and the
   finaliser spreads the last events over every output bit.  The eight
   premix products do not depend on h, so only one multiply per event
   sits on the dependent chain.

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
  mutable count : int; (* lifetime emits; the ring holds min count cap *)
  (* Two unboxed 64-bit words in one flat [floatarray]: the digest state
     (word 0) and a slot (byte 8) through which a float's bits are read
     (see [float_bits]).  A [mutable int64] field would box a fresh
     value, and write-barrier the store, on every event. *)
  state : floatarray;
  (* Optional online observer (the invariant checker).  Called after the
     event is digested and stored; it cannot influence the digest or the
     ring, only observe the stream. *)
  mutable sink : (event -> unit) option;
}

(* The bytes primitives read and write 64-bit words at a byte offset
   from the start of the block, which is where a [floatarray] (always
   flat) keeps its doubles; the GC never scans either kind of block. *)
external get_state : floatarray -> int -> int64 = "%caml_bytes_get64u"

external set_state : floatarray -> int -> int64 -> unit = "%caml_bytes_set64u"

let seed = 0x243F6A8885A308D3L

(* The premix constants K_ts .. K_arg, one odd constant per field. *)
let k_ts = 0x9E3779B185EBCA87L

let k_kind = 0xC2B2AE3D27D4EB4FL

let k_cpu = 0x165667B19E3779F9L

let k_tid = 0x85EBCA77C2B2AE63L

let k_tag = 0x27D4EB2F165667C5L

let k_cat = 0x87C37B91114253D5L

let k_dur = 0x4CF5AD432745937FL

let k_arg = 0xFF51AFD7ED558CCDL

(* One field's term of the event word. *)
let[@inline] premix w k = Int64.mul (Int64.logxor w (Int64.shift_right_logical w 32)) k

let[@inline] int_term x k = premix (Int64.of_int x) k

(* [Int64.bits_of_float x] without its C call, which spills every live
   register around it: store [x] in the state's second word and read the
   same eight bytes back as an [int64]. *)
let[@inline] float_bits t x =
  Float.Array.unsafe_set t.state 1 x;
  get_state t.state 8

let[@inline] float_term t x k = premix (float_bits t x) k

(* The summed terms of the fields each lean entry point fixes, computed
   once: ocamlopt folds none of the premix arithmetic, even on constant
   arguments. *)
let bare_fixed =
  List.fold_left Int64.add 0L
    [ int_term (-1) k_cpu; int_term (-1) k_tid; int_term (-1) k_tag; int_term (-1) k_cat
    ; premix (Int64.bits_of_float 0.) k_dur; int_term 0 k_arg ]

let charge_fixed =
  List.fold_left Int64.add 0L
    [ int_term (kind_index Charge) k_kind; int_term (-1) k_tag; int_term 0 k_arg ]

let thread_fixed =
  List.fold_left Int64.add 0L
    [ int_term (-1) k_tag; int_term (-1) k_cat; premix (Int64.bits_of_float 0.) k_dur ]

let make ~on ~capacity =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  let state = Float.Array.make 2 0. in
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

(* The event word e of one event, from the fields its entry point
   passes: [word] premixes all eight, the lean variants only the ones
   their callers vary, plus the precomputed sum of the rest.  Each is
   digest-identical to [word] over the same eight fields. *)
let[@inline] word t ~ts ~ki ~cpu ~tid ~tag ~ci ~dur ~arg =
  Int64.add
    (Int64.add
       (Int64.add (float_term t ts k_ts) (int_term ki k_kind))
       (Int64.add (int_term cpu k_cpu) (int_term tid k_tid)))
    (Int64.add
       (Int64.add (int_term tag k_tag) (int_term ci k_cat))
       (Int64.add (float_term t dur k_dur) (int_term arg k_arg)))

let[@inline] bare_word t ~ts ~ki =
  Int64.add (Int64.add (float_term t ts k_ts) (int_term ki k_kind)) bare_fixed

let[@inline] charge_word t ~ts ~cpu ~tid ~ci ~dur =
  Int64.add
    (Int64.add
       (Int64.add (float_term t ts k_ts) (int_term cpu k_cpu))
       (Int64.add (int_term tid k_tid) (int_term ci k_cat)))
    (Int64.add (float_term t dur k_dur) charge_fixed)

let[@inline] thread_word t ~ts ~ki ~cpu ~tid ~arg =
  Int64.add
    (Int64.add
       (Int64.add (float_term t ts k_ts) (int_term ki k_kind))
       (Int64.add (int_term cpu k_cpu) (int_term tid k_tid)))
    (Int64.add (int_term arg k_arg) thread_fixed)

(* Chain one event word into the digest: the one step on the dependent
   chain, in unboxed registers once inlined. *)
let[@inline] chain t e =
  let h = get_state t.state 0 in
  let r = Int64.logor (Int64.shift_left h 23) (Int64.shift_right_logical h 41) in
  set_state t.state 0 (Int64.mul (Int64.logxor r e) 0x9E3779B97F4A7C15L)

(* Store one event in the ring and hand it to the sink.  [head] is
   always a valid index (< cap, every array is [cap] long), so the
   stores skip the bounds checks; the wrap is a compare, not a [mod]. *)
let[@inline] store t ~ts ~ki ~cpu ~tid ~tag ~ci ~dur ~arg =
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
  t.count <- t.count + 1;
  match t.sink with
  | None -> ()
  | Some _ -> feed_sink t ~ts ~ki ~cpu ~tid ~tag ~ci ~dur ~arg

(* Every emit entry point is [chain] then [store], both inlined. *)
let emit t ~ts ?(cpu = -1) ?(tid = -1) ?(tag = -1) ?cat ?(dur = 0.) ?(arg = 0) kind =
  if t.on then begin
    let ci = match cat with None -> -1 | Some c -> Breakdown.category_index c in
    let ki = kind_index kind in
    chain t (word t ~ts ~ki ~cpu ~tid ~tag ~ci ~dur ~arg);
    store t ~ts ~ki ~cpu ~tid ~tag ~ci ~dur ~arg
  end

(* Lean hot-path variants of [emit], digest- and ring-identical to the
   equivalent [emit] call.  Their call sites fire millions of times per
   run, and there the general entry point's optional arguments (a
   [Some] box per present option, a boxed default per absent one) were
   measurable. *)

(* [emit t ~ts kind]: every optional field defaulted (the engine's
   scheduling events). *)
let emit_bare t ~ts kind =
  if t.on then begin
    let ki = kind_index kind in
    chain t (bare_word t ~ts ~ki);
    store t ~ts ~ki ~cpu:(-1) ~tid:(-1) ~tag:(-1) ~ci:(-1) ~dur:0. ~arg:0
  end

(* [emit t ~ts ~cpu ~tid ~cat ~dur Charge] (tag and arg defaulted): the
   cost-attribution event every [Kernel.charge] emits. *)
let emit_charge t ~ts ~cpu ~tid ~cat ~dur =
  if t.on then begin
    let ci = Breakdown.category_index cat in
    chain t (charge_word t ~ts ~cpu ~tid ~ci ~dur);
    store t ~ts ~ki:(kind_index Charge) ~cpu ~tid ~tag:(-1) ~ci ~dur ~arg:0
  end

(* [emit t ~ts ~cpu ~tid ~arg kind] (tag, category and duration
   defaulted): the kernel's Ctxsw, Ipi, Syscall and Spawn events. *)
let emit_thread t ~ts ~cpu ~tid ~arg kind =
  if t.on then begin
    let ki = kind_index kind in
    chain t (thread_word t ~ts ~ki ~cpu ~tid ~arg);
    store t ~ts ~ki ~cpu ~tid ~tag:(-1) ~ci:(-1) ~dur:0. ~arg
  end

let total t = t.count

let held t = if t.count < t.cap then t.count else t.cap

let dropped t = t.count - held t

let digest t = Rng.finalise (get_state t.state 0)

let digest_hex t = Printf.sprintf "%016Lx" (digest t)

let nth_event t j =
  let i = (t.head - held t + j + t.cap + t.cap) mod t.cap in
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

let events t = List.init (held t) (nth_event t)

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
  let len = held t in
  let buf = Buffer.create (256 * (len + 2)) in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  for j = 0 to len - 1 do
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
