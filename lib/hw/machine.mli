(** The CODOMs machine: fetch/execute with code-centric protection
    checks (Sec. 4.1).  The tag of the current instruction's page selects
    the APL used for data-access and control-transfer checks; crossing
    into another domain is just a jump.  Every instruction charges a
    calibrated latency; the protection checks themselves cost nothing
    (they run in parallel with the pipeline, per the paper's
    simulations). *)

module Breakdown = Dipc_sim.Breakdown

(** A superblock: straight-line bodies chained across direct
    jumps/calls and speculated conditional-branch arms, compiled to
    direct-threaded closures, with side exits back to the dispatcher
    when a speculation or a tag/priv junction guard fails mid-chain. *)
type superblock

(** One hardware thread's execution context. *)
type ctx = {
  id : int;  (** identity for synchronous-capability scoping *)
  regs : int array;
  cregs : Capability.t option array;
  mutable pc : int;
  mutable cur_tag : int;  (** domain of the current instruction *)
  mutable cur_page : int;
  mutable priv : bool;  (** privileged-capability bit of that page *)
  mutable fsbase : int;  (** TLS segment base *)
  mutable tp : int;  (** per-thread kernel struct pointer *)
  dcs : Dcs.t;
  mutable dcs_saved : Dcs.saved list;
  mutable depth : int;  (** call depth (synchronous capability scope) *)
  mutable epochs : int array;  (** frame epoch per depth *)
  mutable cost : float;
      (** accumulated simulated ns.  Only [Machine] writes it, and it is
          current whenever [Machine] is not running: after {!run} returns
          or raises, after {!step}, {!charge} and {!charge_as}, and inside
          an [on_syscall] handler.  While {!run} executes compiled code
          the running total lives in [cost_acc]. *)
  cost_acc : floatarray;
      (** the machine's own running total (one unboxed slot, so adding
          to it allocates nothing); read [cost] instead *)
  mutable instret : int;
  breakdown : Breakdown.t;
  apl_cache : Apl_cache.t;
  mutable halted : bool;
}

type t = {
  page_table : Page_table.t;
  apl : Apl.t;
  mem : Memory.t;
  revocation : Capability.Revocation.table;
  mutable on_syscall : (ctx -> int -> unit) option;
  mutable next_ctx_id : int;
  mutable tracer : Dipc_sim.Trace.t;
  tlb_pages : int array;
      (** direct-mapped translation cache: page number cached per way *)
  tlb_entries : Page_table.page array;
  mutable tlb_gen : int;
      (** {!Page_table.generation} the cache was filled at; a mismatch
          invalidates every way *)
  mutable tlb_refills : int;
      (** translation-cache misses (page-table walks).  Host-side only:
          it depends on the cache geometry, not on the simulated
          execution, so it is in no pinned counter set or digest. *)
  mutable inject : Dipc_sim.Inject.t option;
      (** fault injector consulted at domain crossings; [None] = clean *)
  mutable reference : bool;
      (** [run] forces the reference stepper when true; when false (the
          default) it dispatches through compiled superblocks unless the
          tracer is enabled or an injector is installed.  See
          {!set_reference}. *)
  sblocks : superblock Layout.Int_tbl.t;
      (** superblock cache, keyed by entry pc; machine-wide so
          {!pretranslate} can warm it before any context exists *)
  ras_pc : int array;
      (** the return-address stack (fixed circular buffer of predicted
          return continuations); machine-wide like [sblocks] — every
          prediction is re-validated before it is chained, so stale
          entries mispredict, never diverge *)
  ras_sb : superblock array;
      (** empty slots hold a dummy whose -1 generation counters can
          never pass the pop-side liveness guard *)
  ras_uidx : int array;
  mutable ras_top : int;  (** next push slot *)
  mutable ras_len : int;  (** live entries (overflow drops the oldest) *)
  mutable ctr_block_entries : int;
      (** deterministic perf counters — pure functions of the simulated
          execution, identical at any [--jobs], and never
          part of any digest (they are dispatch-path-dependent by
          design: the reference interpreter reports zeros).
          [ctr_block_entries] counts translated-body entries (one per
          superblock unit entered) *)
  mutable ctr_sb_hits : int;  (** warm superblock dispatches *)
  mutable ctr_sb_translations : int;  (** superblocks (re)translated *)
  mutable ctr_side_exits : int;
      (** mid-chain exits: speculation misses, junction tag/priv guard
          failures, and dynamic junctions (Ret/Jmpr/Callr) that failed
          to chain *)
  mutable ctr_ras_hits : int;
      (** chained Rets predicted by the return-address stack *)
  mutable ctr_ras_misses : int;
      (** chained Rets that fell back to dispatch (mispredict,
          under/overflow, cross-crossing return, stale target); every
          miss is also counted in [ctr_side_exits] *)
  mutable ctr_ic_hits : int;
      (** chained Jmpr/Callr sites whose inline cache re-matched *)
  mutable ctr_ic_misses : int;
      (** chained Jmpr/Callr sites that fell back to dispatch
          (polymorphic target, cold cache, stale superblock); every
          miss is also counted in [ctr_side_exits] *)
  mutable posture : Fault.posture;
      (** enforcement posture for authorization faults (sampled from
          {!Fault.get_default_posture} at creation); see {!set_posture} *)
  mutable audited_faults : int;
      (** authorization faults downgraded by the [Audit] posture *)
}

exception Out_of_fuel

val create : unit -> t

(** Force the reference stepper on one machine (true), or let [run]
    use the compiled path (false).  Results, costs and digests are
    identical either way — triage only. *)
val set_reference : t -> bool -> unit

(** Select the enforcement posture for authorization faults (those some
    authority could have granted): [Strict] raises — the default, under
    which every pre-existing golden digest is pinned; [Audit] counts the
    would-be fault in [audited_faults] (and emits a traced Fault event)
    before letting the operation proceed; [Permissive] proceeds
    silently.  Structural faults — unmapped pages, bad instructions,
    broken capability encodings, DCS bounds — raise under every
    posture. *)
val set_posture : t -> Fault.posture -> unit

(** Process-wide default for {!create} (sampled at machine creation):
    the [--reference] escape hatch for experiment code that builds
    machines internally. *)
val set_default_reference : bool -> unit

(** Warm the superblock cache for the entry point at [pc] (a no-op on a
    [reference] machine, or when [pc] is unmapped or not
    executable).  Called at proxy/template generation time so the first
    dIPC crossing dispatches into already-compiled code; only effective
    if no later [Memory.place_code]/table change bumps a generation —
    a stale warm entry merely retranslates on first dispatch. *)
val pretranslate : t -> pc:int -> unit

val set_syscall_handler : t -> (ctx -> int -> unit) -> unit

(** Install a trace sink: instruction charges, domain crossings, syscalls
    and faults are emitted into it (timestamped by the executing context's
    accumulated cost).  Defaults to {!Dipc_sim.Trace.null}. *)
val set_trace : t -> Dipc_sim.Trace.t -> unit

(** Install (or clear) a seeded fault injector: domain crossings may then
    suffer APL-cache flushes (forcing the refill path) and
    capability-register clobber-and-restore cycles.  The crossing must
    still produce the same architectural results, just slower. *)
val set_inject : t -> Dipc_sim.Inject.t option -> unit

val new_ctx : ?dcs_capacity:int -> t -> pc:int -> sp_value:int -> ctx

(** Charge [ns] to [User_code] / to an explicit category. *)
val charge : t -> ctx -> float -> unit

val charge_as : t -> ctx -> Breakdown.category -> float -> unit

(** Cross-domain control-transfer check + domain switch (Sec. 4.1): read
    rights allow any target, call rights only aligned entry points. *)
val check_transfer : t -> ctx -> int -> unit

(** Execute one instruction (the reference stepper). *)
val step : t -> ctx -> [ `Halted | `Running ]

(** Run until Halt; raises {!Fault.Fault} on protection violations and
    {!Out_of_fuel} after [fuel] instructions.  Dispatches through
    compiled superblocks — with a return-address stack on [Ret] and
    monomorphic inline caches on [Jmpr]/[Callr] — unless [reference] is
    set, the tracer is enabled or an injector is installed; otherwise
    steps through the reference interpreter.  Both paths produce identical architectural
    state, costs, Breakdown totals and trace digests. *)
val run : ?fuel:int -> t -> ctx -> unit

(** Kernel-privilege redirection (fault unwinding, Sec. 5.2.1): set the
    pc and domain state without APL checks. *)
val force_transfer : t -> ctx -> target:int -> unit

(** Kernel-privilege frame drop: invalidate synchronous capabilities of
    the dropped frames. *)
val force_unwind_depth : ctx -> depth:int -> unit

(** Host-side frame entry (the host's invocation is itself a frame). *)
val enter_frame : ctx -> unit

(** Unchecked word write/read (loader / DMA path). *)
val poke_words : t -> addr:int -> int array -> unit

val peek_word : t -> addr:int -> int
