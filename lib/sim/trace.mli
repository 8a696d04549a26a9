(** Structured event tracing with deterministic replay fingerprints.

    A trace is a fixed-capacity ring buffer of flat event records plus a
    streaming digest over the {e entire} event stream (including events
    the ring has already overwritten).  Two runs with the same RNG seeds
    produce bit-identical event streams and therefore identical digests,
    which makes the digest a replay fingerprint the determinism
    regression tests can assert on.

    The digest (v2) folds each event's eight fields (ts, kind, cpu, tid,
    tag, cat, dur, arg) as eight 64-bit words — floats by their IEEE-754
    bit patterns, ints sign-extended, a missing category as [-1] — one
    step per word, [h <- (rotl h 23 lxor w) * 0x9E3779B97F4A7C15], from
    [h = 0x243F6A8885A308D3], and {!digest} applies splitmix64's
    finaliser ({!Rng.finalise}) to [h].  Each step is a bijection, so
    changing any single field of any event always changes the digest;
    the rotate keeps two flips of bit 63 from cancelling, and the
    finaliser lets every output bit depend on the last words folded.
    Equal digests mean equal streams only with high probability: streams
    that differ in several fields collide with probability about
    2{^-64}.

    Tracing is strictly observational: emitting events never advances
    simulated time, so enabling a trace must not change any simulated
    result.  The disabled sink {!null} makes every [emit] a single load
    and branch, with no allocation — hot paths guard with {!enabled}
    before building optional arguments. *)

type kind =
  | Sched  (** a raw engine event was queued *)
  | Spawn  (** a simulated thread was created *)
  | Resume  (** a parked thread was unparked (queued to run now) *)
  | Suspend  (** a thread parked until another unparks it *)
  | Ctxsw  (** a CPU switched to a different thread *)
  | Ipi  (** inter-processor interrupt sent ([arg] = target tid) or handled *)
  | Syscall  (** syscall entry/dispatch overhead charged *)
  | Domain_cross  (** CODOMs domain switch ([tag] = new, [arg] = old) *)
  | Fault  (** a protection fault was raised ([arg] = faulting pc) *)
  | Charge  (** [dur] nanoseconds charged to category [cat] *)
  | Dcs_push  (** a frame was pushed on a DCS ([arg] = resulting depth) *)
  | Dcs_pop  (** a DCS frame was popped ([arg] = resulting depth) *)
  | Dcs_adjust
      (** a DCS switch/restore re-based the stack ([arg] = resulting
          depth) — depth may jump by more than one *)
  | Xtag_access
      (** data access crossing a tag boundary ([tag] = destination page's
          tag, [arg] = accessor's tag, [cpu] = authority code: 1 = held
          capability, 2 = APL grant, 3 = posture downgrade let an
          unauthorized access retire.  Code 0 ("no authority") is never
          machine-emitted — the checker flags it *)
  | Priv_op
      (** a privileged instruction executed ([cpu] = authority code: 1 =
          the context held the priv bit, 2 = posture downgrade; 0 is
          never machine-emitted — the checker flags it; [arg] = pc) *)
  | Cap_revoke
      (** an asynchronous capability revocation ([tag] = owner tag,
          [arg] = revocation counter, [cpu] = table value after the
          bump) *)
  | Cap_use
      (** an asynchronous capability was exercised ([tag] = owner tag,
          [arg] = revocation counter, [cpu] = value stamped at
          creation) *)

(** A materialised event record (the ring itself stores flat arrays).
    Missing fields are [-1] (ints) / [None] (category) / [0.] ([dur]). *)
type event = {
  e_ts : float;  (** simulated time, ns *)
  e_kind : kind;
  e_cpu : int;
  e_tid : int;
  e_tag : int;  (** CODOMs domain tag, where known *)
  e_cat : Breakdown.category option;
  e_dur : float;  (** duration charged, ns ([Charge] events) *)
  e_arg : int;  (** kind-specific extra payload *)
}

type t

(** The always-disabled sink: emitting into it is a no-op. *)
val null : t

(** An enabled trace keeping the last [capacity] events (default 65536). *)
val create : ?capacity:int -> unit -> t

val enabled : t -> bool

(** Install (or clear) an online observer called with every emitted
    event, after it has been digested and stored.  The sink is strictly
    read-only with respect to the trace: it cannot perturb the digest,
    the ring contents, or simulated time.  Used by {!Checker} to verify
    protocol invariants while a run executes. *)
val set_sink : t -> (event -> unit) option -> unit

(** Record one event.  No-op on a disabled sink. *)
val emit :
  t ->
  ts:float ->
  ?cpu:int ->
  ?tid:int ->
  ?tag:int ->
  ?cat:Breakdown.category ->
  ?dur:float ->
  ?arg:int ->
  kind ->
  unit

(** [emit_bare t ~ts kind] ≡ [emit t ~ts kind]: lean entry point for the
    engine's scheduling events, which fire once per queued event.
    Digest- and ring-identical to the general call, minus the
    optional-argument overhead. *)
val emit_bare : t -> ts:float -> kind -> unit

(** [emit_charge t ~ts ~cpu ~tid ~cat ~dur] ≡
    [emit t ~ts ~cpu ~tid ~cat ~dur Charge]: lean entry point for the
    kernel's cost-attribution events, the most frequent event kind. *)
val emit_charge :
  t -> ts:float -> cpu:int -> tid:int -> cat:Breakdown.category -> dur:float -> unit

(** [emit_thread t ~ts ~cpu ~tid ~arg kind] ≡
    [emit t ~ts ~cpu ~tid ~arg kind]: lean entry point for the kernel's
    thread events (context switch, IPI, syscall, spawn), which carry a
    CPU, a thread and an argument and leave the rest defaulted. *)
val emit_thread : t -> ts:float -> cpu:int -> tid:int -> arg:int -> kind -> unit

(** Events still held in the ring, oldest first. *)
val events : t -> event list

(** Number of events emitted over the trace's lifetime. *)
val total : t -> int

(** Events overwritten by ring wrap-around (still digested). *)
val dropped : t -> int

(** The v2 digest of every event emitted so far (see above). *)
val digest : t -> int64

(** The digest as a 16-hex-digit replay fingerprint. *)
val digest_hex : t -> string

(** The retained events as Chrome [trace_event] JSON (a complete
    [{"traceEvents": [...]}] object loadable in [chrome://tracing] or
    Perfetto).  [Charge] events become complete ("X") slices, everything
    else instants; [pid] carries the CPU, [tid] the thread. *)
val to_chrome_string : t -> string

(** Write {!to_chrome_string} to a channel. *)
val write_chrome : out_channel -> t -> unit

val pp_event : Format.formatter -> event -> unit
