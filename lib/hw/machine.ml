(* The CODOMs machine: fetch/execute with code-centric protection checks.

   The subject of every access-control decision is the *instruction
   pointer* (Sec. 4.1): the tag of the page the current instruction lives
   on selects the APL used to check data accesses and cross-domain control
   transfers.  Crossing into another domain is just a jump; the effective
   key set and privilege level change implicitly, which is why domain
   switches cost no more than the branch itself (Table 1).

   Timing: every instruction charges a calibrated latency (Isa.cost) to the
   executing context, attributed to a Breakdown category chosen per domain
   tag; protection checks themselves are free, matching the paper's
   simulation result that they run in parallel with the pipeline. *)

module Costs = Dipc_sim.Costs
module Breakdown = Dipc_sim.Breakdown
module Trace = Dipc_sim.Trace

let apl_cache_refill_cost = 250.0 (* exception + software cache refill *)

(* One unit of a superblock: a straight-line body (compiled to
   direct-threaded closures over the context), an optional *chained*
   terminator, and one speculated successor.  Only control flow whose
   target is a translation-time constant is chained: direct [Jmp],
   direct [Call], and conditional branches (speculated backward-taken /
   forward-fall-through, the classic static heuristic).  [Ret], the
   indirect jumps/calls, [Syscall], [Trap] and [Halt] always end the
   chain — they either compute their target at run time, run foreign
   code, or stop the machine.

   [u_next] is the speculated successor pc and [u_next_idx] its unit
   index within the same superblock (-1 = planned chain end: the
   dispatcher takes over).  A [u_next_idx] pointing *backward* closes a
   loop inside the superblock, so a hot loop executes with no cache
   lookups at all.  [u_tag]/[u_priv] record the domain view the unit
   was translated under; the junction re-checks them after the
   transfer check because [Page_table.retag]/[set_protection] mutate
   pages in place without bumping the table generation.

   The dynamic transfers are chained too.  [u_dyn] classifies the
   terminator's junction: [Dyn_ret] consults the per-machine
   return-address stack, [Dyn_ic] a per-site monomorphic inline cache
   on [Jmpr]/[Callr].  [u_cont_idx] is the unit index of a [Call]/
   [Callr]'s return continuation within the same superblock (-1 if it
   was not materialised under the unit budget): the terminator pushes
   it onto the RAS so the matching [Ret] can chain straight back.
   [Syscall], [Trap] and [Halt] still always end the chain — they run
   foreign code or stop the machine. *)
type sunit = {
  u_pc : int;
  u_tag : int;
  u_priv : bool;
  u_len : int;
  u_code : (ctx -> unit) array;  (* direct-threaded body *)
  u_costs : float array;
  u_term : Isa.instr option;  (* chained terminator, if any *)
  u_term_code : ctx -> unit;  (* its compiled form (no-op when None) *)
  u_term_pc : int;
  u_term_cost : float;
  u_next : int;
  u_next_idx : int;
  u_dyn : dyn;  (* dynamic-junction kind of the chained terminator *)
  mutable u_cont_idx : int;
      (* call-return continuation unit (RAS prediction), -1 = none;
         mutable only because continuations are resolved after every
         unit of the superblock has been built *)
}

and dyn = Dyn_none | Dyn_ret | Dyn_ic of ic

(* A monomorphic inline cache on one [Jmpr]/[Callr] site: the last
   observed target pc and (when warm) the superblock it chained into.
   [ic_sb] is revalidated against the live tag/priv view and the
   generation counters on every consult — a stale entry is refilled
   from the machine-wide cache or falls back to the dispatcher. *)
and ic = { mutable ic_pc : int; mutable ic_sb : superblock option }

and superblock = {
  s_pc : int;
  s_tag : int;
  s_priv : bool;
  s_units : sunit array;
  s_code_gen : int;
  s_pt_gen : int;
  s_apl_gen : int;
      (* No APL-cache guard: the cache is per-context while superblocks
         are shared machine-wide, and bodies and junctions consult
         APL-cache state live. *)
}

and ctx = {
  id : int;
  regs : int array;
  cregs : Capability.t option array;
  mutable pc : int;
  mutable cur_tag : int;
  mutable cur_page : int; (* page of the last fetched instruction *)
  mutable priv : bool; (* privileged-capability bit of that page *)
  mutable fsbase : int; (* TLS segment base *)
  mutable tp : int; (* per-thread kernel struct pointer (gs-like) *)
  dcs : Dcs.t;
  mutable dcs_saved : Dcs.saved list;
  mutable depth : int; (* call depth, for synchronous capability scope *)
  mutable epochs : int array; (* frame epoch per depth *)
  mutable cost : float;
      (* accumulated ns: a mirror of [cost_acc], refreshed whenever
         control leaves the machine (see [sync_cost]) *)
  cost_acc : floatarray;
      (* the running total itself, one unboxed slot: adding into it
         allocates nothing, while every store to a float field of this
         mixed record boxes the float and takes the write barrier *)
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
  mutable tracer : Trace.t;
  tlb_pages : int array; (* direct-mapped translation cache: page per way *)
  tlb_entries : Page_table.page array;
  mutable tlb_gen : int;
      (* {!Page_table.generation} the cache was filled at; a mismatch
         invalidates every way at once *)
  mutable tlb_refills : int; (* host-side only: misses, never pinned *)
  mutable inject : Dipc_sim.Inject.t option;
      (* Fault injector consulted at domain crossings; [None] keeps the
         crossing path exactly as-is. *)
  mutable reference : bool;
      (* [run] dispatches through compiled superblocks when false (and
         the tracer is off and no injector is installed); true forces
         the reference stepper throughout — the --reference triage
         escape hatch. *)
  sblocks : superblock Layout.Int_tbl.t;
      (* superblock cache, keyed by entry pc; machine-wide (shared by
         every context) so [pretranslate] can warm it before any thread
         exists *)
  ras_pc : int array;
      (* The return-address stack: a fixed circular buffer of predicted
         return continuations (pc, superblock, unit index), pushed by
         chained Call/Callr terminators and popped by chained Rets.
         Machine-wide like [sblocks]: a context switch between push and
         pop merely mispredicts (a counted side exit), never diverges —
         every prediction is validated against the live pc, tag/priv
         and generation counters before it is chained. *)
  ras_sb : superblock array;
      (* [ras_dummy] marks an empty slot: its generation fields are -1,
         which the pop-side liveness guard can never match, so no
         separate occupancy test (or per-push [Some] allocation) is
         needed on the hot path *)
  ras_uidx : int array;
  mutable ras_top : int;  (* next push slot *)
  mutable ras_len : int;  (* live entries (overflow drops the oldest) *)
  mutable ctr_block_entries : int;
      (* deterministic perf counters: translated-body entries (one per
         superblock unit entered)... *)
  mutable ctr_sb_hits : int;  (* ...warm superblock dispatches... *)
  mutable ctr_sb_translations : int;  (* ...superblock (re)translations... *)
  mutable ctr_side_exits : int;
      (* ...and mid-chain exits: speculation misses, junction tag/priv
         guard failures, and dynamic junctions (Ret/Jmpr/Callr) that
         failed to chain.  Pure functions of the simulated execution —
         identical at any --jobs — and never part of any
         digest (they are path-dependent by design: the reference
         interpreter reports zeros). *)
  mutable ctr_ras_hits : int;
      (* chained Rets predicted by the return-address stack... *)
  mutable ctr_ras_misses : int;
      (* ...and chained Rets that fell back to the dispatcher
         (mispredict, under/overflow, cross-crossing, stale target);
         every miss is also a side exit *)
  mutable ctr_ic_hits : int;
      (* chained Jmpr/Callr sites whose inline cache re-matched... *)
  mutable ctr_ic_misses : int;
      (* ...and those that fell back to dispatch (polymorphic target,
         cold cache, stale superblock); every miss is also a side
         exit *)
  mutable posture : Fault.posture;
      (* Enforcement posture for authorization faults: Strict raises
         (the default), Audit counts + traces the would-be fault and
         lets the operation proceed, Permissive proceeds silently.
         Structural faults raise under every posture. *)
  mutable audited_faults : int;
      (* Authorization faults downgraded by the Audit posture. *)
}

exception Out_of_fuel

(* Process-wide default for [t.reference], sampled by [create]:
   experiment code builds machines internally, so the CLI escape hatch
   flips this before any machine exists.  Atomic because the parallel
   runner creates machines from several domains. *)
let default_reference = Atomic.make false

let set_default_reference v = Atomic.set default_reference v

(* Return-address stack capacity; a power of two so push/pop wrap with a
   mask.  64 comfortably covers the deepest call towers in the suite —
   deeper recursion degrades to mispredicted (reference-path) returns,
   never to wrong execution. *)
let ras_capacity = 64

(* Translation-cache geometry: a direct-mapped power-of-two array so a
   lookup is one multiply, one shift and one compare.  The way index is
   a multiplicative (Fibonacci) hash: the top [tlb_bits] bits of
   [page * K], K = 2^62 / golden ratio (odd), so every page bit moves the
   index.  Workloads place code, data, stack and kernel regions at round
   power-of-two addresses, and an index built from a few low bits (or an
   xor of shifted bit fields, the previous scheme) maps same-offset
   pages of different regions to one way: on a +proc dIPC call the
   kernel page 0x100 and the stack pages 0x140004/0x100004 shared way 4,
   and 0x100005/0x140005 shared way 5, for 8 page-table walks per call.
   With the hash, all 17 pages a warm dIPC call touches (six Fig. 5
   policies) land in distinct ways, which a regression test in
   test_core.ml pins. *)
let tlb_bits = 6

let tlb_ways = 1 lsl tlb_bits

let[@inline] tlb_way page = (page * 0x278DDE6E5FD29F05) lsr (Sys.int_size - tlb_bits)

(* Never chained: generation counters only count up from 0, so the -1s
   fail the pop-side liveness guard before [s_units] is ever touched. *)
let ras_dummy : superblock =
  {
    s_pc = -1;
    s_tag = -1;
    s_priv = false;
    s_units = [||];
    s_code_gen = -1;
    s_pt_gen = -1;
    s_apl_gen = -1;
  }

(* Never returned: [tlb_pages] entries start at -1, which no address
   maps to. *)
let tlb_dummy : Page_table.page =
  {
    Page_table.tag = -1;
    readable = false;
    writable = false;
    executable = false;
    priv_cap = false;
    cap_store = false;
  }

let create () =
  {
    page_table = Page_table.create ();
    apl = Apl.create ();
    mem = Memory.create ();
    revocation = Capability.Revocation.create ();
    on_syscall = None;
    next_ctx_id = 0;
    tracer = Trace.null;
    tlb_pages = Array.make tlb_ways (-1);
    tlb_entries = Array.make tlb_ways tlb_dummy;
    tlb_gen = -1;
    tlb_refills = 0;
    inject = None;
    reference = Atomic.get default_reference;
    sblocks = Layout.Int_tbl.create 64;
    ras_pc = Array.make ras_capacity 0;
    ras_sb = Array.make ras_capacity ras_dummy;
    ras_uidx = Array.make ras_capacity 0;
    ras_top = 0;
    ras_len = 0;
    ctr_block_entries = 0;
    ctr_sb_hits = 0;
    ctr_sb_translations = 0;
    ctr_side_exits = 0;
    ctr_ras_hits = 0;
    ctr_ras_misses = 0;
    ctr_ic_hits = 0;
    ctr_ic_misses = 0;
    posture = Fault.Strict;
    audited_faults = 0;
  }

let set_reference m v = m.reference <- v

let set_posture m p = m.posture <- p

(* Page-table lookup through the direct-mapped translation cache:
   fetch/load/store into a warm page skips the page-table lookup.  Two
   pages whose indexes collide still evict one another; the hashed
   [tlb_way] keeps the hot pages of the measured workloads apart (zero
   refills on a warm dIPC call), and [tlb_refills] counts the rest.
   Entries are invalidated by the table's generation counter (map/unmap)
   — a generation bump flushes the whole cache on the next miss — and
   in-place page mutation is observed through the shared record. *)
let[@inline never] tlb_refill m ~pc addr ~page ~way =
  let entry = Page_table.find_exn m.page_table ~pc addr in
  m.tlb_refills <- m.tlb_refills + 1;
  let gen = Page_table.generation m.page_table in
  if gen <> m.tlb_gen then begin
    Array.fill m.tlb_pages 0 tlb_ways (-1);
    m.tlb_gen <- gen
  end;
  m.tlb_pages.(way) <- page;
  m.tlb_entries.(way) <- entry;
  entry

(* The hit path inlines into every data-access and transfer check; the
   refill stays out of line. *)
let[@inline] find_page m ~pc addr =
  let page = Layout.page_of addr in
  let way = tlb_way page in
  if Array.unsafe_get m.tlb_pages way = page
     && Page_table.generation m.page_table = m.tlb_gen
  then Array.unsafe_get m.tlb_entries way
  else tlb_refill m ~pc addr ~page ~way

let set_syscall_handler m f = m.on_syscall <- Some f

let set_trace m tracer = m.tracer <- tracer

let set_inject m inj = m.inject <- inj

let new_ctx ?(dcs_capacity = Dcs.default_capacity) m ~pc ~sp_value =
  let id = m.next_ctx_id in
  m.next_ctx_id <- m.next_ctx_id + 1;
  let regs = Array.make Isa.num_regs 0 in
  regs.(Isa.sp) <- sp_value;
  {
    id;
    regs;
    cregs = Array.make Isa.num_cregs None;
    pc;
    cur_tag = -1;
    cur_page = -1;
    priv = false;
    fsbase = 0;
    tp = 0;
    dcs = Dcs.create ~capacity:dcs_capacity ();
    dcs_saved = [];
    depth = 0;
    epochs = Array.make 64 0;
    cost = 0.;
    cost_acc = Float.Array.make 1 0.;
    instret = 0;
    breakdown = Breakdown.create ();
    apl_cache = Apl_cache.create ();
    halted = false;
  }

(* The context's accumulated cost.  Inside the machine it is read from
   the accumulator; [ctx.cost] is the copy code outside reads, refreshed
   by [sync_cost] on every way out: [charge]/[charge_as] (so an
   [on_syscall] handler, which only runs after [Syscall]'s two charges,
   and a caller that charges a context by hand both see it current) and
   the return, normal or exceptional, from [run].  The compiled path adds
   into the accumulator alone. *)
let[@inline] cost_now ctx = Float.Array.unsafe_get ctx.cost_acc 0

let[@inline] sync_cost ctx = ctx.cost <- cost_now ctx

let charge m ctx ns =
  Float.Array.unsafe_set ctx.cost_acc 0 (cost_now ctx +. ns);
  sync_cost ctx;
  Breakdown.charge ctx.breakdown Breakdown.User_code ns;
  if Trace.enabled m.tracer then
    Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:ctx.cur_tag
      ~cat:Breakdown.User_code ~dur:ns Trace.Charge

let charge_as m ctx category ns =
  Float.Array.unsafe_set ctx.cost_acc 0 (cost_now ctx +. ns);
  sync_cost ctx;
  Breakdown.charge ctx.breakdown category ns;
  if Trace.enabled m.tracer then
    Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:ctx.cur_tag ~cat:category
      ~dur:ns Trace.Charge

(* Posture-mediated denial.  Strict raises (the pre-posture behaviour,
   byte-identical digests); Audit counts the would-be fault — and, when
   tracing, emits the Fault event the strict machine would have — then
   lets the caller continue; Permissive continues silently.  Structural
   faults ([Fault.downgradeable] = false) raise under every posture. *)
let deny m ctx ?addr ~pc kind =
  if m.posture = Fault.Strict || not (Fault.downgradeable kind) then
    Fault.raise_fault ?addr ~pc kind
  else if m.posture = Fault.Audit then begin
    m.audited_faults <- m.audited_faults + 1;
    if Trace.enabled m.tracer then
      Trace.emit m.tracer ~ts:(cost_now ctx) ~tid:ctx.id ~tag:ctx.cur_tag ~arg:pc
        Trace.Fault
  end

(* --- capability validity (Sec. 4.2) --- *)

(* Is the capability usable by this context right now (thread, frame
   liveness, revocation counters)? *)
let cap_valid m ctx (cap : Capability.t) =
  match cap.scope with
  | Capability.Synchronous { thread; depth; epoch } ->
      thread = ctx.id && depth <= ctx.depth && ctx.epochs.(depth) = epoch
  | Capability.Asynchronous { owner_tag; counter; value } ->
      Capability.Revocation.value m.revocation ~tag:owner_tag ~counter = value

(* --- data access checks --- *)

let page_allows (page : Page_table.page) (perm : Perm.t) =
  match perm with
  | Perm.Write | Perm.Owner -> page.writable
  | Perm.Read -> page.readable
  | Perm.Call | Perm.Nil -> page.readable

(* Audit trail behind a granted (or posture-downgraded) data access, for
   the checker's isolation invariants.  [Xtag_access] records the
   authority carrying a cross-tag access: 2 = APL, 1 = capability, 3 =
   allowed by a non-strict posture.  Code 0 ("no authority at all") is
   never emitted — the machine denies instead — so its appearance in a
   stream is itself the violation the checker looks for.  A capability
   grant additionally records [Cap_use] with the stamp the capability
   was minted under, which the checker replays against observed
   [Cap_revoke] events (revocation completeness). *)
let trace_authority m ctx ~(page : Page_table.page) ~apl_ok ~cap =
  if page.tag <> ctx.cur_tag then begin
    let code = if apl_ok then 2 else if cap <> None then 1 else 3 in
    Trace.emit m.tracer ~ts:(cost_now ctx) ~cpu:code ~tid:ctx.id ~tag:page.tag
      ~arg:ctx.cur_tag Trace.Xtag_access
  end;
  match cap with
  | Some
      {
        Capability.scope = Capability.Asynchronous { owner_tag; counter; value };
        _;
      } ->
      Trace.emit m.tracer ~ts:(cost_now ctx) ~cpu:value ~tid:ctx.id ~tag:owner_tag
        ~arg:counter Trace.Cap_use
  | _ -> ()

(* The first capability register whose capability covers [len] bytes at
   [addr], grants [perm] and is valid, or -1.  The range and rights tests
   run before [cap_valid], whose asynchronous case looks up a revocation
   counter; all three are pure, so the order changes no result.  An index
   rather than the capability keeps the scan from allocating a [Some]. *)
let granting_creg m ctx ~addr ~len ~perm =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Isa.num_cregs do
    (match ctx.cregs.(!i) with
    | Some cap
      when Capability.covers cap ~addr ~len
           && Capability.grants cap perm
           && cap_valid m ctx cap ->
        found := !i
    | Some _ | None -> ());
    incr i
  done;
  !found

let creg_opt ctx i = if i < 0 then None else ctx.cregs.(i)

(* Check that [ctx] may access [len] bytes at [addr] with [perm]; data
   accesses are satisfied by the APL of the current domain or by any of the
   8 capability registers (Sec. 4.2). *)
let check_data m ctx ~addr ~len ~perm =
  let page = find_page m ~pc:ctx.pc addr in
  if page.cap_store then
    deny m ctx ~pc:ctx.pc ~addr
      (Fault.Cap_storage "regular access to a capability-storage page");
  let apl_perm = Apl.permission m.apl ~src:ctx.cur_tag ~dst:page.tag in
  let apl_ok = Perm.includes apl_perm perm in
  (* The APL-granted case (every same-domain access) is the hot path:
     it never consults the capability registers, so skip the scan and
     its accumulator entirely. *)
  if apl_ok then begin
    if Trace.enabled m.tracer then
      trace_authority m ctx ~page ~apl_ok:true ~cap:None
  end
  else begin
    let g = granting_creg m ctx ~addr ~len ~perm in
    if g < 0 then deny m ctx ~pc:ctx.pc ~addr (Fault.No_permission perm);
    if Trace.enabled m.tracer then
      trace_authority m ctx ~page ~apl_ok:false ~cap:(creg_opt ctx g)
  end;
  (* CODOMs honors the per-page protection bits (Sec. 4.1). *)
  if not (page_allows page perm) then begin
    if Perm.includes perm Perm.Write then
      deny m ctx ~pc:ctx.pc ~addr Fault.Write_to_readonly
    else deny m ctx ~pc:ctx.pc ~addr (Fault.No_permission perm)
  end

let check_cap_page m ctx ~addr ~perm =
  let page = find_page m ~pc:ctx.pc addr in
  if not page.cap_store then
    deny m ctx ~pc:ctx.pc ~addr
      (Fault.Cap_storage "capability access to a regular page");
  let apl_perm = Apl.permission m.apl ~src:ctx.cur_tag ~dst:page.tag in
  let apl_ok = Perm.includes apl_perm perm in
  let g =
    if apl_ok then -1
    else granting_creg m ctx ~addr ~len:Layout.cap_bytes ~perm
  in
  if not apl_ok && g < 0 then
    deny m ctx ~pc:ctx.pc ~addr (Fault.No_permission perm);
  if Trace.enabled m.tracer then
    trace_authority m ctx ~page ~apl_ok ~cap:(creg_opt ctx g);
  if not (page_allows page perm) then
    deny m ctx ~pc:ctx.pc ~addr Fault.Write_to_readonly

(* --- control transfer checks (Sec. 4.1) --- *)

(* Called at fetch whenever the pc lands on a different page than the last
   executed instruction.  [ctx.cur_tag] is still the *source* domain. *)
let check_transfer m ctx target =
  let page = find_page m ~pc:target target in
  if not page.executable then deny m ctx ~pc:target Fault.Exec_violation;
  let new_tag = page.tag in
  if new_tag <> ctx.cur_tag && ctx.cur_tag <> -1 then begin
    let apl_perm = Apl.permission m.apl ~src:ctx.cur_tag ~dst:new_tag in
    let aligned = Layout.is_aligned target Layout.entry_align in
    let best = ref apl_perm in
    let best_creg = ref (-1) (* the register carrying [best], if any *) in
    (* range test before [cap_valid], as in [granting_creg] *)
    for i = 0 to Isa.num_cregs - 1 do
      match ctx.cregs.(i) with
      | Some cap
        when Capability.covers cap ~addr:target ~len:Isa.instr_bytes
             && cap_valid m ctx cap ->
          if Perm.rank cap.perm > Perm.rank !best then begin
            best := cap.perm;
            best_creg := i
          end
      | Some _ | None -> ()
    done;
    (match !best with
    | Perm.Read | Perm.Write | Perm.Owner -> ()
    | Perm.Call ->
        (* Call permission only enters through aligned entry points. *)
        if not aligned then deny m ctx ~pc:target Fault.Not_entry_point
    | Perm.Nil -> deny m ctx ~pc:target (Fault.No_permission Perm.Call));
    (* A crossing carried by an asynchronous capability leaves the same
       audit record as a capability-granted data access. *)
    (if Trace.enabled m.tracer && !best_creg >= 0 then
       match ctx.cregs.(!best_creg) with
       | Some
           {
             Capability.scope =
               Capability.Asynchronous { owner_tag; counter; value };
             _;
           } ->
           Trace.emit m.tracer ~ts:(cost_now ctx) ~cpu:value ~tid:ctx.id
             ~tag:owner_tag ~arg:counter Trace.Cap_use
       | _ -> ());
    if Trace.enabled m.tracer then
      Trace.emit m.tracer ~ts:(cost_now ctx) ~tid:ctx.id ~tag:new_tag ~arg:ctx.cur_tag
        Trace.Domain_cross;
    (match m.inject with
    | Some inj ->
        (* Injected cold APL cache: the crossing must still succeed, just
           through the (slow) refill path. *)
        if Dipc_sim.Inject.apl_flush inj then
          Apl_cache.reset ctx.apl_cache;
        (* Injected capability-register spill/refill around the crossing:
           the register file must survive a clobber-and-restore cycle,
           charged as kernel time. *)
        (match Dipc_sim.Inject.creg_clobber inj with
        | Some cost ->
            let saved = Array.copy ctx.cregs in
            Array.fill ctx.cregs 0 (Array.length ctx.cregs) None;
            Array.blit saved 0 ctx.cregs 0 (Array.length saved);
            charge_as m ctx Breakdown.Kernel cost
        | None -> ())
    | None -> ());
    (* The instruction pointer now originates from the new domain; its APL
       becomes the active one, via the per-thread APL cache. *)
    if not (Apl_cache.ensure_hit ctx.apl_cache new_tag) then
      charge_as m ctx Breakdown.Kernel apl_cache_refill_cost
  end
  else if ctx.cur_tag = -1 then ignore (Apl_cache.ensure_hit ctx.apl_cache new_tag);
  ctx.cur_tag <- new_tag;
  ctx.cur_page <- Layout.page_of target;
  ctx.priv <- page.priv_cap

(* Privileged-instruction gate.  On retirement (priv held, or past a
   posture downgrade) the audit record carries the authority in [cpu]:
   1 = the priv_cap bit, 2 = posture override.  Code 0 ("retired with no
   authority") is never emitted — the checker treats it as a violation. *)
let require_priv m ctx =
  if not ctx.priv then deny m ctx ~pc:ctx.pc Fault.Privilege_required;
  if Trace.enabled m.tracer then
    Trace.emit m.tracer ~ts:(cost_now ctx)
      ~cpu:(if ctx.priv then 1 else 2)
      ~tid:ctx.id ~tag:ctx.cur_tag ~arg:ctx.pc Trace.Priv_op

(* --- frame tracking for synchronous capabilities --- *)

let ensure_epochs ctx depth =
  if depth >= Array.length ctx.epochs then begin
    let fresh = Array.make (2 * (depth + 1)) 0 in
    Array.blit ctx.epochs 0 fresh 0 (Array.length ctx.epochs);
    ctx.epochs <- fresh
  end

let enter_frame ctx =
  ctx.depth <- ctx.depth + 1;
  ensure_epochs ctx ctx.depth

let leave_frame ctx ~pc =
  if ctx.depth <= 0 then Fault.raise_fault ~pc (Fault.Software_trap (-1));
  (* Kill every synchronous capability created in the dying frame. *)
  ctx.epochs.(ctx.depth) <- ctx.epochs.(ctx.depth) + 1;
  ctx.depth <- ctx.depth - 1

(* --- register helpers --- *)

let reg ctx r = ctx.regs.(r)

let set_reg ctx r v = ctx.regs.(r) <- v

let creg ctx ~pc c =
  match ctx.cregs.(c) with
  | Some cap -> cap
  | None -> Fault.raise_fault ~pc Fault.Cap_invalid

let valid_creg m ctx ~pc c =
  let cap = creg ctx ~pc c in
  if not (cap_valid m ctx cap) then Fault.raise_fault ~pc Fault.Cap_invalid;
  cap

(* Derive a capability for [base,len) from the current domain's APL: every
   page in the range must be accessible with at least [perm]. *)
let derive_from_apl m ctx ~pc ~base ~len ~perm =
  if len <= 0 then Fault.raise_fault ~pc Fault.Cap_invalid;
  let first = Layout.page_of base and last = Layout.page_of (base + len - 1) in
  for p = first to last do
    let addr = p * Layout.page_size in
    let page = find_page m ~pc addr in
    let granted = Apl.permission m.apl ~src:ctx.cur_tag ~dst:page.tag in
    if not (Perm.includes granted perm) then
      deny m ctx ~pc ~addr (Fault.No_permission perm)
  done;
  {
    Capability.base;
    length = len;
    perm;
    scope =
      Capability.Synchronous
        { thread = ctx.id; depth = ctx.depth; epoch = ctx.epochs.(ctx.depth) };
  }

(* --- the interpreter --- *)

let word = Layout.word_size

(* Execute the body of one already-fetched, already-charged instruction.
   Shared by the reference stepper and the superblock compiler; [pc] is
   the instruction's own address (= [ctx.pc] on entry) and [next] its
   fall-through successor. *)
let exec_instr m ctx instr ~pc ~next =
    (match instr with
    | Isa.Nop -> ctx.pc <- next
    | Isa.Halt -> ctx.halted <- true
    | Isa.Trap n -> Fault.raise_fault ~pc (Fault.Software_trap n)
    | Isa.Syscall n -> begin
        if Trace.enabled m.tracer then
          Trace.emit m.tracer ~ts:(cost_now ctx) ~tid:ctx.id ~tag:ctx.cur_tag ~arg:n
            Trace.Syscall;
        charge_as m ctx Breakdown.Syscall_entry Costs.syscall_entry_exit;
        charge_as m ctx Breakdown.Dispatch Costs.syscall_dispatch;
        match m.on_syscall with
        | Some handler ->
            handler ctx n;
            ctx.pc <- next
        | None -> Fault.raise_fault ~pc (Fault.Software_trap (1000 + n))
      end
    | Isa.Jmp target -> ctx.pc <- target
    | Isa.Jmpr r -> ctx.pc <- reg ctx r
    | Isa.Call target ->
        let new_sp = reg ctx Isa.sp - word in
        check_data m ctx ~addr:new_sp ~len:word ~perm:Perm.Write;
        Memory.store_word m.mem new_sp next;
        set_reg ctx Isa.sp new_sp;
        enter_frame ctx;
        ctx.pc <- target
    | Isa.Callr r ->
        let target = reg ctx r in
        let new_sp = reg ctx Isa.sp - word in
        check_data m ctx ~addr:new_sp ~len:word ~perm:Perm.Write;
        Memory.store_word m.mem new_sp next;
        set_reg ctx Isa.sp new_sp;
        enter_frame ctx;
        ctx.pc <- target
    | Isa.Ret ->
        let sp_value = reg ctx Isa.sp in
        check_data m ctx ~addr:sp_value ~len:word ~perm:Perm.Read;
        let target = Memory.load_word m.mem sp_value in
        set_reg ctx Isa.sp (sp_value + word);
        (* The return transfer is checked with the *returning* frame's
           rights: a synchronous capability created in this frame (e.g. the
           proxy's return capability, Sec. 5.2.3/P3) must still satisfy the
           check even though the frame dies on return. *)
        check_transfer m ctx target;
        leave_frame ctx ~pc;
        ctx.pc <- target
    | Isa.Beq (a, b, t) -> ctx.pc <- (if reg ctx a = reg ctx b then t else next)
    | Isa.Bne (a, b, t) -> ctx.pc <- (if reg ctx a <> reg ctx b then t else next)
    | Isa.Blt (a, b, t) -> ctx.pc <- (if reg ctx a < reg ctx b then t else next)
    | Isa.Bge (a, b, t) -> ctx.pc <- (if reg ctx a >= reg ctx b then t else next)
    | Isa.Beqz (a, t) -> ctx.pc <- (if reg ctx a = 0 then t else next)
    | Isa.Bnez (a, t) -> ctx.pc <- (if reg ctx a <> 0 then t else next)
    | Isa.Const (r, v) ->
        set_reg ctx r v;
        ctx.pc <- next
    | Isa.Mov (d, s) ->
        set_reg ctx d (reg ctx s);
        ctx.pc <- next
    | Isa.Add (d, a, b) ->
        set_reg ctx d (reg ctx a + reg ctx b);
        ctx.pc <- next
    | Isa.Addi (d, a, i) ->
        set_reg ctx d (reg ctx a + i);
        ctx.pc <- next
    | Isa.Sub (d, a, b) ->
        set_reg ctx d (reg ctx a - reg ctx b);
        ctx.pc <- next
    | Isa.Mul (d, a, b) ->
        set_reg ctx d (reg ctx a * reg ctx b);
        ctx.pc <- next
    | Isa.Shli (d, a, i) ->
        set_reg ctx d (reg ctx a lsl i);
        ctx.pc <- next
    | Isa.Load (d, b, o) ->
        let addr = reg ctx b + o in
        check_data m ctx ~addr ~len:word ~perm:Perm.Read;
        set_reg ctx d (Memory.load_word m.mem addr);
        ctx.pc <- next
    | Isa.Store (b, o, s) ->
        let addr = reg ctx b + o in
        check_data m ctx ~addr ~len:word ~perm:Perm.Write;
        Memory.store_word m.mem addr (reg ctx s);
        ctx.pc <- next
    | Isa.RdTp r ->
        require_priv m ctx;
        set_reg ctx r ctx.tp;
        ctx.pc <- next
    | Isa.RdDepth r ->
        require_priv m ctx;
        set_reg ctx r ctx.depth;
        ctx.pc <- next
    | Isa.WrFsBase r ->
        ctx.fsbase <- reg ctx r;
        ctx.pc <- next
    | Isa.RdFsBase r ->
        set_reg ctx r ctx.fsbase;
        ctx.pc <- next
    | Isa.GetHwTag (d, s) -> begin
        require_priv m ctx;
        match Apl_cache.lookup ctx.apl_cache (reg ctx s) with
        | Some hw ->
            set_reg ctx d hw;
            ctx.pc <- next
        | None ->
            charge_as m ctx Breakdown.Kernel apl_cache_refill_cost;
            set_reg ctx d (Apl_cache.install ctx.apl_cache (reg ctx s));
            ctx.pc <- next
      end
    | Isa.CapAplDerive (c, rb, rl, perm) ->
        let cap =
          derive_from_apl m ctx ~pc ~base:(reg ctx rb) ~len:(reg ctx rl) ~perm
        in
        ctx.cregs.(c) <- Some cap;
        ctx.pc <- next
    | Isa.CapRestrict (cd, cs, rb, rl, perm) -> begin
        let src = valid_creg m ctx ~pc cs in
        match
          Capability.restrict src ~base:(reg ctx rb) ~length:(reg ctx rl) ~perm
        with
        | Ok cap ->
            ctx.cregs.(cd) <- Some cap;
            ctx.pc <- next
        | Error _ -> Fault.raise_fault ~pc Fault.Cap_invalid
      end
    | Isa.CapAsync (cd, cs, rctr) ->
        let src = valid_creg m ctx ~pc cs in
        let counter = reg ctx rctr in
        let value =
          Capability.Revocation.value m.revocation ~tag:ctx.cur_tag ~counter
        in
        ctx.cregs.(cd) <-
          Some
            {
              src with
              scope = Capability.Asynchronous { owner_tag = ctx.cur_tag; counter; value };
            };
        ctx.pc <- next
    | Isa.CapRevoke rctr ->
        let counter = reg ctx rctr in
        Capability.Revocation.revoke m.revocation ~tag:ctx.cur_tag ~counter;
        if Trace.enabled m.tracer then
          Trace.emit m.tracer ~ts:(cost_now ctx)
            ~cpu:(Capability.Revocation.value m.revocation ~tag:ctx.cur_tag ~counter)
            ~tid:ctx.id ~tag:ctx.cur_tag ~arg:counter Trace.Cap_revoke;
        ctx.pc <- next
    | Isa.CapClear c ->
        ctx.cregs.(c) <- None;
        ctx.pc <- next
    | Isa.CapPush c ->
        Dcs.push ctx.dcs ~pc (valid_creg m ctx ~pc c);
        if Trace.enabled m.tracer then
          Trace.emit m.tracer ~ts:(cost_now ctx) ~tid:ctx.id ~tag:ctx.cur_tag
            ~arg:(Dcs.depth ctx.dcs) Trace.Dcs_push;
        ctx.pc <- next
    | Isa.CapPop c ->
        ctx.cregs.(c) <- Some (Dcs.pop ctx.dcs ~pc);
        if Trace.enabled m.tracer then
          Trace.emit m.tracer ~ts:(cost_now ctx) ~tid:ctx.id ~tag:ctx.cur_tag
            ~arg:(Dcs.depth ctx.dcs) Trace.Dcs_pop;
        ctx.pc <- next
    | Isa.CapLoad (c, rb, o) -> begin
        let addr = reg ctx rb + o in
        check_cap_page m ctx ~addr ~perm:Perm.Read;
        match Memory.load_cap m.mem addr with
        | Some cap ->
            ctx.cregs.(c) <- Some cap;
            ctx.pc <- next
        | None -> Fault.raise_fault ~pc ~addr Fault.Cap_invalid
      end
    | Isa.CapStore (rb, o, c) ->
        let addr = reg ctx rb + o in
        check_cap_page m ctx ~addr ~perm:Perm.Write;
        Memory.store_cap m.mem addr (valid_creg m ctx ~pc c);
        ctx.pc <- next
    | Isa.DcsGetTop r ->
        set_reg ctx r (Dcs.depth ctx.dcs);
        ctx.pc <- next
    | Isa.DcsGetBase r ->
        require_priv m ctx;
        set_reg ctx r (Dcs.base ctx.dcs);
        ctx.pc <- next
    | Isa.DcsSetBase r ->
        require_priv m ctx;
        Dcs.set_base ctx.dcs ~pc (reg ctx r);
        ctx.pc <- next
    | Isa.DcsSwitch r ->
        require_priv m ctx;
        ctx.dcs_saved <- Dcs.switch ctx.dcs ~pc ~args:(reg ctx r) :: ctx.dcs_saved;
        if Trace.enabled m.tracer then
          Trace.emit m.tracer ~ts:(cost_now ctx) ~tid:ctx.id ~tag:ctx.cur_tag
            ~arg:(Dcs.depth ctx.dcs) Trace.Dcs_adjust;
        ctx.pc <- next
    | Isa.DcsRestore r -> begin
        require_priv m ctx;
        match ctx.dcs_saved with
        | saved :: rest ->
            Dcs.restore ctx.dcs ~pc ~rets:(reg ctx r) saved;
            ctx.dcs_saved <- rest;
            if Trace.enabled m.tracer then
              Trace.emit m.tracer ~ts:(cost_now ctx) ~tid:ctx.id ~tag:ctx.cur_tag
                ~arg:(Dcs.depth ctx.dcs) Trace.Dcs_adjust;
            ctx.pc <- next
        | [] -> Fault.raise_fault ~pc (Fault.Dcs_bounds "no saved DCS to restore")
      end)

let step_unlogged m ctx =
  if ctx.halted then `Halted
  else begin
    let pc = ctx.pc in
    if Layout.page_of pc <> ctx.cur_page then check_transfer m ctx pc;
    let instr =
      match Memory.fetch m.mem pc with
      | Some i -> i
      | None -> Fault.raise_fault ~pc Fault.Bad_instruction
    in
    ctx.instret <- ctx.instret + 1;
    charge m ctx (Isa.cost instr);
    exec_instr m ctx instr ~pc ~next:(pc + Isa.instr_bytes);
    if ctx.halted then `Halted else `Running
  end

let step m ctx =
  try step_unlogged m ctx
  with Fault.Fault f as exn ->
    if Trace.enabled m.tracer then
      Trace.emit m.tracer ~ts:(cost_now ctx) ~tid:ctx.id ~tag:ctx.cur_tag
        ~arg:f.Fault.pc Trace.Fault;
    raise exn

(* --- superblock dispatch (direct-threaded trace compiler) --- *)

(* A terminator ends a straight-line body: anything that can leave the
   pc+4 successor chain (or stop execution). *)
let is_terminator = function
  | Isa.Halt | Isa.Trap _ | Isa.Syscall _ | Isa.Jmp _ | Isa.Jmpr _
  | Isa.Call _ | Isa.Callr _ | Isa.Ret | Isa.Beq _ | Isa.Bne _ | Isa.Blt _
  | Isa.Bge _ | Isa.Beqz _ | Isa.Bnez _ ->
      true
  | _ -> false

(* Compile one body instruction to a pre-specialized closure: operands,
   own pc and fall-through successor are captured at translation time,
   so the hot constructors pay no dispatch at all.  Each closure is an
   exact transcription of the matching [exec_instr] arm — same check
   order, same [ctx.pc] discipline (still the instruction's own address
   while its checks run, advanced to [next] last), so faults carry the
   same pc and denials replay identically.  Rare constructors fall back
   to [exec_instr]. *)
let compile_instr m instr ~pc ~next =
  match instr with
  | Isa.Nop -> fun ctx -> ctx.pc <- next
  | Isa.Const (r, v) ->
      fun ctx ->
        ctx.regs.(r) <- v;
        ctx.pc <- next
  | Isa.Mov (d, s) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(s);
        ctx.pc <- next
  | Isa.Add (d, a, b) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) + ctx.regs.(b);
        ctx.pc <- next
  | Isa.Addi (d, a, i) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) + i;
        ctx.pc <- next
  | Isa.Sub (d, a, b) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) - ctx.regs.(b);
        ctx.pc <- next
  | Isa.Mul (d, a, b) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) * ctx.regs.(b);
        ctx.pc <- next
  | Isa.Shli (d, a, i) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) lsl i;
        ctx.pc <- next
  | Isa.Load (d, b, o) ->
      fun ctx ->
        let addr = ctx.regs.(b) + o in
        check_data m ctx ~addr ~len:word ~perm:Perm.Read;
        ctx.regs.(d) <- Memory.load_word m.mem addr;
        ctx.pc <- next
  | Isa.Store (b, o, s) ->
      fun ctx ->
        let addr = ctx.regs.(b) + o in
        check_data m ctx ~addr ~len:word ~perm:Perm.Write;
        Memory.store_word m.mem addr ctx.regs.(s);
        ctx.pc <- next
  | Isa.WrFsBase r ->
      fun ctx ->
        ctx.fsbase <- ctx.regs.(r);
        ctx.pc <- next
  | Isa.RdFsBase r ->
      fun ctx ->
        ctx.regs.(r) <- ctx.fsbase;
        ctx.pc <- next
  | _ -> fun ctx -> exec_instr m ctx instr ~pc ~next

(* Chained terminators get the same treatment: branches and direct
   jumps compile to a pc assignment (the junction then compares the
   actual pc against the speculation); [Call] and anything else fall
   back to [exec_instr]. *)
let compile_term m instr ~pc ~next =
  match instr with
  | Isa.Jmp t -> fun ctx -> ctx.pc <- t
  | Isa.Beq (a, b, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) = ctx.regs.(b) then t else next)
  | Isa.Bne (a, b, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) <> ctx.regs.(b) then t else next)
  | Isa.Blt (a, b, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) < ctx.regs.(b) then t else next)
  | Isa.Bge (a, b, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) >= ctx.regs.(b) then t else next)
  | Isa.Beqz (a, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) = 0 then t else next)
  | Isa.Bnez (a, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) <> 0 then t else next)
  | _ -> fun ctx -> exec_instr m ctx instr ~pc ~next

let term_nop (_ : ctx) = ()

(* The speculated successor of a chainable terminator at [pc], or None
   for the unchainable ones (indirect targets, Syscall/Trap/Halt/Ret).
   Conditional branches speculate backward-taken / forward-fall-through
   — loops chain onto themselves, forward guards chain onto the common
   path, and the other arm side-exits at run time. *)
let chain_target ~pc = function
  | Isa.Jmp t | Isa.Call t -> Some t
  | Isa.Beq (_, _, t)
  | Isa.Bne (_, _, t)
  | Isa.Blt (_, _, t)
  | Isa.Bge (_, _, t) ->
      Some (if t <= pc then t else pc + Isa.instr_bytes)
  | Isa.Beqz (_, t) | Isa.Bnez (_, t) ->
      Some (if t <= pc then t else pc + Isa.instr_bytes)
  | _ -> None

let max_superblock_units = 32

(* Translate the superblock entered at [pc] under domain view
   [tag]/[priv]: follow the speculated chain — body, chained
   terminator, successor — until it reaches an unchainable terminator,
   an unmapped/non-executable successor, a pc already in this
   superblock (closing a loop), or the unit limit.  Pure reads plus
   closure construction: [Memory.fetch] and [Page_table.find] are what
   the reference path performs anyway, so translation is invisible to
   digests.  Successor domain views are read from the page table here
   and re-checked at the junction at run time (pages mutate in place).

   Dynamic transfers (Ret, Jmpr, Callr) are chained as terminators with
   a [Dyn_ret]/[Dyn_ic] junction; every Call/Callr additionally
   enqueues its return continuation as a secondary chain
   seed so the matching Ret has a unit to land on.  Seeds are processed
   FIFO after the primary chain ends, under the same unit budget — the
   primary chain is therefore built exactly as before, and a
   continuation that does not fit simply leaves [u_cont_idx] at -1 (the
   Ret then mispredicts to the dispatcher, never executes wrong
   code). *)
let translate_superblock m ~pc ~tag ~priv =
  let units = ref [] in
  let count = ref 0 in
  let index = Layout.Int_tbl.create 8 in
  let conts = Queue.create () in
  let rec next_seed () =
    match Queue.take_opt conts with
    | None -> None
    | Some ((spc, _, _) as seed) ->
        if Layout.Int_tbl.mem index spc || !count >= max_superblock_units then
          next_seed ()
        else Some seed
  in
  let cur = ref (Some (pc, tag, priv)) in
  while !cur <> None do
    let upc, utag, upriv =
      match !cur with Some c -> c | None -> assert false
    in
    Layout.Int_tbl.replace index upc !count;
    (* straight-line body: same page, every slot fetchable, no
       terminators — pure reads, exactly the decodes the reference
       stepper performs per instruction *)
    let page0 = Layout.page_of upc in
    let rev = ref [] in
    let n = ref 0 in
    let p = ref upc in
    let stop = ref false in
    while not !stop do
      if Layout.page_of !p <> page0 then stop := true
      else
        match Memory.fetch m.mem !p with
        | Some i when not (is_terminator i) ->
            rev := i :: !rev;
            incr n;
            p := !p + Isa.instr_bytes
        | Some _ | None -> stop := true
    done;
    let instrs = Array.of_list (List.rev !rev) in
    let term_pc = !p in
    let term, succ, dyn =
      if Layout.page_of term_pc <> page0 then
        (* the body ran off the page end: a fall-through junction — no
           terminator, the successor is the next page's first slot *)
        (None, Some term_pc, Dyn_none)
      else
        match Memory.fetch m.mem term_pc with
        | None -> (None, None, Dyn_none)
        | Some i -> (
            match chain_target ~pc:term_pc i with
            | Some t -> (Some i, Some t, Dyn_none)
            | None -> (
                match i with
                | Isa.Ret -> (Some i, None, Dyn_ret)
                | Isa.Jmpr _ | Isa.Callr _ ->
                    (Some i, None, Dyn_ic { ic_pc = -1; ic_sb = None })
                | _ -> (None, None, Dyn_none)))
    in
    (* A call's return continuation becomes a secondary seed: translated
       under the *caller's* view, which is exactly the view a Ret lands
       back in — the RAS junction re-validates the landing unit's
       (tag, priv) against the live state before chaining, so even a
       retagged continuation can never run stale. *)
    (match term with
    | Some (Isa.Call _ | Isa.Callr _) -> (
        let cpc = term_pc + Isa.instr_bytes in
        if Layout.page_of cpc = page0 then Queue.add (cpc, utag, upriv) conts
        else
          match Page_table.find m.page_table cpc with
          | Some page when page.Page_table.executable ->
              Queue.add (cpc, page.Page_table.tag, page.Page_table.priv_cap) conts
          | Some _ | None -> ())
    | _ -> ());
    let u_next, u_next_idx, continue_at =
      match succ with
      | None -> (-1, -1, None)
      | Some next_pc -> (
          match Layout.Int_tbl.find_opt index next_pc with
          | Some idx -> (next_pc, idx, None) (* loop closed *)
          | None ->
              if !count + 1 >= max_superblock_units then (-1, -1, None)
              else (
                match Page_table.find m.page_table next_pc with
                | Some page when page.Page_table.executable ->
                    let ntag, npriv =
                      if Layout.page_of next_pc = page0 then (utag, upriv)
                      else (page.Page_table.tag, page.Page_table.priv_cap)
                    in
                    (next_pc, !count + 1, Some (next_pc, ntag, npriv))
                | Some _ | None -> (-1, -1, None)))
    in
    let u =
      {
        u_pc = upc;
        u_tag = utag;
        u_priv = upriv;
        u_len = !n;
        u_code =
          Array.mapi
            (fun i instr ->
              let ipc = upc + (i * Isa.instr_bytes) in
              compile_instr m instr ~pc:ipc ~next:(ipc + Isa.instr_bytes))
            instrs;
        u_costs = Array.map Isa.cost instrs;
        u_term = term;
        u_term_code =
          (match term with
          | Some i ->
              compile_term m i ~pc:term_pc ~next:(term_pc + Isa.instr_bytes)
          | None -> term_nop);
        u_term_pc = term_pc;
        u_term_cost = (match term with Some i -> Isa.cost i | None -> 0.);
        u_next;
        u_next_idx;
        u_dyn = dyn;
        u_cont_idx = -1;
      }
    in
    units := u :: !units;
    incr count;
    cur := (match continue_at with Some _ as c -> c | None -> next_seed ())
  done;
  let s_units = Array.of_list (List.rev !units) in
  (* Resolve call continuations now that every unit exists: a seed may
     have closed onto a unit the primary chain already built, or been
     dropped by the budget (u_cont_idx stays -1). *)
  Array.iter
    (fun u ->
      match u.u_term with
      | Some (Isa.Call _ | Isa.Callr _) -> (
          match Layout.Int_tbl.find_opt index (u.u_term_pc + Isa.instr_bytes) with
          | Some i -> u.u_cont_idx <- i
          | None -> ())
      | _ -> ())
    s_units;
  {
    s_pc = pc;
    s_tag = tag;
    s_priv = priv;
    s_units;
    s_code_gen = Memory.code_generation m.mem;
    s_pt_gen = Page_table.generation m.page_table;
    s_apl_gen = Apl.generation m.apl;
  }

(* Generation validity shared by the dispatcher probe, the RAS pop and
   the inline-cache consult: stale means some code placement, table
   change or APL mutation happened after translation. *)
let sb_live m sb =
  sb.s_code_gen = Memory.code_generation m.mem
  && sb.s_pt_gen = Page_table.generation m.page_table
  && sb.s_apl_gen = Apl.generation m.apl

let find_superblock m ctx pc =
  match Layout.Int_tbl.find m.sblocks pc with
  | sb when sb.s_tag = ctx.cur_tag && sb.s_priv = ctx.priv && sb_live m sb ->
      m.ctr_sb_hits <- m.ctr_sb_hits + 1;
      sb
  | _ | (exception Not_found) ->
      let sb = translate_superblock m ~pc ~tag:ctx.cur_tag ~priv:ctx.priv in
      m.ctr_sb_translations <- m.ctr_sb_translations + 1;
      Layout.Int_tbl.replace m.sblocks pc sb;
      sb

(* Push one predicted return continuation.  Overflow silently drops the
   oldest entry — the corresponding outermost Ret will mispredict to
   the dispatcher, which is always safe. *)
let ras_push m ~cont_pc ~sb ~uidx =
  let slot = m.ras_top in
  m.ras_pc.(slot) <- cont_pc;
  m.ras_sb.(slot) <- sb;
  m.ras_uidx.(slot) <- uidx;
  m.ras_top <- (slot + 1) land (ras_capacity - 1);
  if m.ras_len < ras_capacity then m.ras_len <- m.ras_len + 1

(* Execute a superblock from its entry unit until a planned chain end, a
   side exit, fuel exhaustion or a halt.  The caller (the dispatcher in
   [run]) guarantees [!remaining >= 1], [ctx] not halted, [ctx.pc =
   sb.s_pc] and the transfer check for the entry already performed.

   Charge order replays the reference interpreter exactly: per
   instruction one [instret] bump, one [cost +. c] and one add to the
   [User_code] Breakdown cell — same floats, same sequence — then the
   effect closure.

   The junction protocol after a unit's terminator (or fall-through):
   stop on a planned end; stop (side exit) when the actual [ctx.pc]
   differs from the speculated successor; stop *before* the successor's
   transfer check when fuel is exhausted — the reference loop raises
   Out_of_fuel before performing the next fetch's checks, so running
   the transfer check (a posture fault, an APL-cache refill charge)
   with zero budget would diverge; otherwise run [check_transfer] (the
   exact reference crossing: faults, refill charges, injector-free by
   [block_path_ok]) and re-check the translated tag/priv view — a
   mismatch (in-place retag/reprotection) side-exits to the dispatcher,
   which retranslates under the live view.

   Dynamic junctions follow the same discipline but may hop
   *across* superblocks, so the current unit array is a reference:

   - [Dyn_ret]: the Ret's own closure already performed the reference
     transfer check (with the returning frame's rights), so the
     junction only decides where to continue.  Pop the RAS; chain iff
     the predicted pc equals the live [ctx.pc], the predicted
     superblock's generations are live, and the landing unit's
     translated tag/priv match the live view.  Ordinary cross-domain
     returns (callee tag back to caller tag) chain like same-domain
     ones.  Anything else is a counted miss + side exit; the
     dIPC cross-crossing unwind never reaches here at all (it runs
     through [force_transfer] under Syscall/Trap, which are never
     chained).

   - [Dyn_ic]: Jmpr/Callr closures only set [ctx.pc]; the transfer
     check is the next fetch's job.  On an inline-cache re-match, run
     [check_transfer] at the exact reference position (page change
     only), then chain into the cached superblock iff it matches the
     live tag/priv view at a live generation (refilling the cache from
     the machine-wide table when the cached pointer went stale).  On a
     target change, rebias the cache and fall back to dispatch.

   Nothing inside a superblock can invalidate the *units being run*
   mid-flight: Syscall and Trap (the only instructions that reach
   foreign code) are never chained, and data stores cannot touch the
   separate code store — so generation counters are checked at entry
   and at every cross-superblock hop, not per static junction. *)
let user_code_idx = Breakdown.category_index Breakdown.User_code

let exec_superblock m ctx sb0 remaining =
  let units = ref sb0.s_units in
  let cur_sb = ref sb0 in
  let idx = ref 0 in
  (* Nothing that runs inside a superblock can move a generation counter
     (Syscall/Trap are never chained; data stores cannot touch the code
     store or the tables), so snapshot all three once and make the
     per-junction liveness test three local compares instead of three
     calls through [sb_live]. *)
  let g_code = Memory.code_generation m.mem in
  let g_pt = Page_table.generation m.page_table in
  let g_apl = Apl.generation m.apl in
  (* Costs go into the unboxed accumulator only; [run] refreshes the
     [ctx.cost] mirror when it returns or raises.  A [check_transfer]
     refill charge refreshes it too, harmlessly. *)
  let acc = ctx.cost_acc in
  let continue_ = ref true in
  while !continue_ do
    let u = Array.unsafe_get !units !idx in
    m.ctr_block_entries <- m.ctr_block_entries + 1;
    let k = if u.u_len < !remaining then u.u_len else !remaining in
    remaining := !remaining - k;
    let costs = u.u_costs and code = u.u_code in
    for i = 0 to k - 1 do
      ctx.instret <- ctx.instret + 1;
      let c = Array.unsafe_get costs i in
      Float.Array.unsafe_set acc 0 (Float.Array.unsafe_get acc 0 +. c);
      Breakdown.charge_idx ctx.breakdown user_code_idx c;
      (Array.unsafe_get code i) ctx
    done;
    if k < u.u_len then continue_ := false (* out of fuel mid-body *)
    else begin
      (match u.u_term with
      | Some _ ->
          if !remaining <= 0 then continue_ := false
          else begin
            decr remaining;
            ctx.instret <- ctx.instret + 1;
            let c = u.u_term_cost in
            Float.Array.unsafe_set acc 0 (Float.Array.unsafe_get acc 0 +. c);
            Breakdown.charge_idx ctx.breakdown user_code_idx c;
            u.u_term_code ctx;
            (* A call that completed predicts its return. *)
            if u.u_cont_idx >= 0 then
              ras_push m
                ~cont_pc:(u.u_term_pc + Isa.instr_bytes)
                ~sb:!cur_sb ~uidx:u.u_cont_idx
          end
      | None -> ());
      if !continue_ then begin
        match u.u_dyn with
        | Dyn_none ->
            if u.u_next_idx < 0 || ctx.halted then continue_ := false
            else if ctx.pc <> u.u_next then begin
              m.ctr_side_exits <- m.ctr_side_exits + 1;
              continue_ := false
            end
            else if !remaining <= 0 then continue_ := false
            else begin
              let v = Array.unsafe_get !units u.u_next_idx in
              if Layout.page_of ctx.pc <> ctx.cur_page then begin
                check_transfer m ctx ctx.pc;
                if ctx.cur_tag <> v.u_tag || ctx.priv <> v.u_priv then begin
                  m.ctr_side_exits <- m.ctr_side_exits + 1;
                  continue_ := false
                end
                else idx := u.u_next_idx
              end
              else if ctx.cur_tag <> v.u_tag || ctx.priv <> v.u_priv then begin
                m.ctr_side_exits <- m.ctr_side_exits + 1;
                continue_ := false
              end
              else idx := u.u_next_idx
            end
        | Dyn_ret ->
            if ctx.halted then continue_ := false
            else if !remaining <= 0 then continue_ := false
            else begin
              let hit = ref false in
              if m.ras_len > 0 then begin
                (* the Ret consumes its entry whether or not it
                   predicts — ordinary stack discipline *)
                m.ras_len <- m.ras_len - 1;
                m.ras_top <- (m.ras_top + ras_capacity - 1)
                             land (ras_capacity - 1);
                let slot = m.ras_top in
                (* A consumed slot is left in place rather than cleared:
                   [ras_len] gates every read, so a dead entry is only
                   ever seen again after a fresh push overwrites it, and
                   skipping the clear keeps a pointer-array store (and
                   its write barrier) off the hit path.  An empty slot
                   holds [ras_dummy], whose -1 generations fail this
                   guard before [s_units] is touched. *)
                let psb = Array.unsafe_get m.ras_sb slot in
                if m.ras_pc.(slot) = ctx.pc
                   && psb.s_code_gen = g_code && psb.s_pt_gen = g_pt
                   && psb.s_apl_gen = g_apl
                then begin
                  let v = Array.unsafe_get psb.s_units m.ras_uidx.(slot) in
                  if ctx.cur_tag = v.u_tag && ctx.priv = v.u_priv then begin
                    (* a cross-domain return (callee tag /= caller
                       tag) chains too: its closure already ran the
                       reference transfer check *)
                    hit := true;
                    cur_sb := psb;
                    units := psb.s_units;
                    idx := m.ras_uidx.(slot)
                  end
                end
              end;
              if !hit then m.ctr_ras_hits <- m.ctr_ras_hits + 1
              else begin
                m.ctr_ras_misses <- m.ctr_ras_misses + 1;
                m.ctr_side_exits <- m.ctr_side_exits + 1;
                continue_ := false
              end
            end
        | Dyn_ic cell ->
            if ctx.halted then continue_ := false
            else if !remaining <= 0 then continue_ := false
            else begin
              let target = ctx.pc in
              if cell.ic_pc = target then begin
                (* monomorphic re-match: the reference transfer check
                   runs here, in the exact position the dispatcher
                   would run it (page change only) *)
                if Layout.page_of target <> ctx.cur_page then
                  check_transfer m ctx target;
                (* The warm-cache validity test is written out at both
                   consult sites (rather than as a shared closure) to
                   keep the hit path allocation-free. *)
                match cell.ic_sb with
                | Some sb
                  when sb.s_tag = ctx.cur_tag && sb.s_priv = ctx.priv
                       && sb.s_code_gen = g_code && sb.s_pt_gen = g_pt
                       && sb.s_apl_gen = g_apl ->
                    m.ctr_ic_hits <- m.ctr_ic_hits + 1;
                    cur_sb := sb;
                    units := sb.s_units;
                    idx := 0
                | _ -> (
                    (* stale or cold pointer: refill from the
                       machine-wide table without disturbing the
                       dispatcher-probe counter *)
                    match Layout.Int_tbl.find m.sblocks target with
                    | sb
                      when sb.s_tag = ctx.cur_tag && sb.s_priv = ctx.priv
                           && sb.s_code_gen = g_code && sb.s_pt_gen = g_pt
                           && sb.s_apl_gen = g_apl ->
                        cell.ic_sb <- Some sb;
                        m.ctr_ic_hits <- m.ctr_ic_hits + 1;
                        cur_sb := sb;
                        units := sb.s_units;
                        idx := 0
                    | _ | (exception Not_found) ->
                        m.ctr_ic_misses <- m.ctr_ic_misses + 1;
                        m.ctr_side_exits <- m.ctr_side_exits + 1;
                        continue_ := false)
              end
              else begin
                (* polymorphic (or cold) site: rebias and dispatch *)
                cell.ic_pc <- target;
                cell.ic_sb <- None;
                m.ctr_ic_misses <- m.ctr_ic_misses + 1;
                m.ctr_side_exits <- m.ctr_side_exits + 1;
                continue_ := false
              end
            end
      end
    end
  done

(* Warm the superblock cache for an entry point before any thread runs
   it — called at proxy/template generation time so the first dIPC
   crossing dispatches into already-compiled code.  A no-op on a
   [reference] machine, or when [pc] is unmapped/non-executable.
   The warm entry stays valid only until the next code placement or
   table change bumps a generation (callers should pretranslate after
   their last [place_code]); a stale entry merely retranslates. *)
let pretranslate m ~pc =
  if not m.reference then
    match Page_table.find m.page_table pc with
    | Some page when page.Page_table.executable ->
        let sb =
          translate_superblock m ~pc ~tag:page.Page_table.tag
            ~priv:page.Page_table.priv_cap
        in
        m.ctr_sb_translations <- m.ctr_sb_translations + 1;
        Layout.Int_tbl.replace m.sblocks pc sb
    | Some _ | None -> ()

(* The compiled path is only observably identical to the reference
   stepper when nothing watches individual steps: tracing emits
   per-instruction Charge events (timestamps interleave with crossing
   events) and an injector perturbs crossings, so either forces the
   reference stepper, as does [reference] itself. *)
let block_path_ok m =
  (not m.reference)
  && (not (Trace.enabled m.tracer))
  && match m.inject with None -> true | Some _ -> false

let run_loop fuel m ctx =
  let remaining = ref fuel in
  let running = ref true in
  while !running do
    if !remaining <= 0 then raise Out_of_fuel;
    if block_path_ok m then
      if ctx.halted then begin
        decr remaining;
        running := false
      end
      else begin
        let pc = ctx.pc in
        if Layout.page_of pc <> ctx.cur_page then check_transfer m ctx pc;
        let sb = find_superblock m ctx pc in
        let u0 = Array.unsafe_get sb.s_units 0 in
        if u0.u_len = 0 && u0.u_term = None then begin
          (* Unchainable terminator (Syscall/Trap/Halt) or unfetchable
             slot at the entry: one reference step (the transfer check
             above already ran, [step_unlogged] will not repeat it).
             Ret/Jmpr/Callr entries are chained terminators and run
             through [exec_superblock] like any other unit. *)
          decr remaining;
          match step_unlogged m ctx with
          | `Halted -> running := false
          | `Running -> ()
        end
        else exec_superblock m ctx sb remaining
      end
    else begin
      decr remaining;
      (* Reference path.  When the tracer is off, [step]'s try/with
         exists only to emit a Fault event nobody would see — skip the
         handler installation per step and let faults propagate raw. *)
      let r =
        if Trace.enabled m.tracer then step m ctx else step_unlogged m ctx
      in
      match r with `Halted -> running := false | `Running -> ()
    end
  done

(* The compiled path leaves [ctx.cost] behind the accumulator, so bring
   the mirror up to date on the way out, also when a fault or
   [Out_of_fuel] escapes. *)
let run ?(fuel = 10_000_000) m ctx =
  match run_loop fuel m ctx with
  | () -> sync_cost ctx
  | exception e ->
      sync_cost ctx;
      raise e

(* --- conveniences used by the OS layer and tests --- *)

(* Kernel-privilege control transfer: used when the OS redirects a thread
   (fault unwinding, Sec. 5.2.1) — no APL checks apply, the kernel is the
   most privileged agent in the system. *)
let force_transfer m ctx ~target =
  let page = find_page m ~pc:target target in
  ctx.pc <- target;
  ctx.cur_tag <- page.tag;
  ctx.cur_page <- Layout.page_of target;
  ctx.priv <- page.priv_cap;
  ctx.halted <- false;
  ignore (Apl_cache.ensure_hit ctx.apl_cache page.tag)

(* Kernel-privilege frame adjustment for unwinding: drop to [depth],
   invalidating every synchronous capability created in the dropped
   frames. *)
let force_unwind_depth ctx ~depth =
  if depth < 0 || depth > ctx.depth then invalid_arg "force_unwind_depth";
  for d = depth + 1 to ctx.depth do
    ctx.epochs.(d) <- ctx.epochs.(d) + 1
  done;
  ctx.depth <- depth

(* Write a buffer of words into memory without protection checks (loader /
   DMA path). *)
let poke_words m ~addr words =
  Array.iteri (fun i v -> Memory.store_word m.mem (addr + (i * word)) v) words

let peek_word m ~addr = Memory.load_word m.mem addr
