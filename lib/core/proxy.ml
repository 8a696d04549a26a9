(* Run-time optimized proxy generation (Secs. 3.1, 5.2.3, 6.1.1, 6.1.2).

   A proxy is the only trusted code on a dIPC call path.  It is generated
   from a parametrised master template, specialised by entry-point
   signature and effective isolation properties, and placed in its own
   privileged domain that can access both the caller and the callee (the
   paper builds ~12K x86 templates averaging 600 B from one master
   template; we generate instruction sequences on demand and memoise by
   the same specialisation key).

   Call path (Fig. 3): the caller stub `call`s the proxy entry (allowed by
   Call permission, forced through the 64-byte-aligned first instruction);
   the proxy validates the stack pointer, pushes a KCS entry, plants its
   own return address, performs the process/stack/DCS switches the policy
   requires, and jumps in-place to the target.  The callee's `ret` can
   only land on the proxy's return path thanks to a synchronous return
   capability (c7).  The return path undoes everything from the KCS. *)

module Isa = Dipc_hw.Isa
module Layout = Dipc_hw.Layout
module Perm = Dipc_hw.Perm

let scr0 = Isa.scratch0 (* r12: primary scratch; syscall argument *)

let scr1 = Isa.scratch1 (* r13: KCS entry pointer *)

let scr2 = Isa.scratch2 (* r14: thread struct pointer *)

let borrow = 11 (* callee-saved register the proxy borrows and restores *)

let sp = Isa.sp

let ret_creg = 7 (* c7: the return capability (ABI: preserved by callees) *)

let stack_creg = System.stack_creg (* c6: the thread's stack capability *)

(* --- template specialisation key --- *)

type config = {
  sig_ : Types.signature;
  eff : Types.props; (* effective (union) isolation properties *)
  cross_process : bool;
  tls_switch : bool;
}

(* The key itself lives in [Proxy_cache] (so [System] can own a cache
   per system without a dependency cycle). *)
type key = Proxy_cache.key = {
  k_stack_words : int;
  k_cap_args : int;
  k_cap_rets : int;
  k_props : int; (* bitmask *)
  k_cross : bool;
  k_tls : bool;
}

let props_mask (p : Types.props) =
  (if p.reg_integrity then 1 else 0)
  lor (if p.reg_confidentiality then 2 else 0)
  lor (if p.stack_integrity then 4 else 0)
  lor (if p.stack_confidentiality then 8 else 0)
  lor (if p.dcs_integrity then 16 else 0)
  lor (if p.dcs_confidentiality then 32 else 0)

let key_of config =
  {
    k_stack_words = config.sig_.Types.stack_bytes / 8;
    k_cap_args = config.sig_.Types.cap_args;
    k_cap_rets = config.sig_.Types.cap_rets;
    k_props = props_mask config.eff;
    k_cross = config.cross_process;
    k_tls = config.tls_switch;
  }

(* A proxy that performs no state switch at all (same process, no
   proxy-implemented property) compiles to the lean template. *)
let is_lean config =
  (not config.cross_process)
  && (not config.eff.Types.stack_confidentiality)
  && (not config.eff.Types.dcs_integrity)
  && not config.eff.Types.dcs_confidentiality

(* --- the lean template --- *)

(* Same-process minimal-policy proxies: validate the stack, push the
   proxy's return address, hand the callee a return capability, jump.  The
   caller requested no state isolation, so no KCS entry is needed: a fault
   in the callee kills the whole (single-process) call chain, which is
   exactly the no-recovery contract of the Low policy. *)
let gen_lean ~target_addr config =
  ignore config;
  let a = Asm.create () in
  let entry = Asm.label "entry" and ret = Asm.label "ret" and trap = Asm.label "trap" in
  Asm.align a Layout.entry_align;
  Asm.bind a entry;
  (* P2: the callee must start on a valid per-thread stack. *)
  Asm.ins a (Isa.RdTp scr2);
  Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_stack_base));
  Asm.branch a (fun t -> Isa.Blt (sp, scr0, t)) trap;
  Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_stack_limit));
  Asm.branch a (fun t -> Isa.Bge (sp, scr0, t)) trap;
  (* Preserve the caller's return capability across nesting. *)
  Asm.ins a (Isa.CapPush ret_creg);
  (* Push our return path on the data stack; the caller's own return
     address stays in place below it. *)
  Asm.branch a (fun t -> Isa.Const (scr0, t)) ret;
  Asm.ins a (Isa.Addi (sp, sp, -8));
  Asm.ins a (Isa.Store (sp, 0, scr0));
  (* P3: the callee can only return through this capability. *)
  Asm.branch a (fun t -> Isa.Const (scr1, t)) ret;
  Asm.ins a (Isa.Const (scr0, Layout.entry_align));
  Asm.ins a (Isa.CapAplDerive (ret_creg, scr1, scr0, Perm.Call));
  Asm.ins a (Isa.Const (scr0, target_addr));
  Asm.ins a (Isa.Jmpr scr0);
  (* Return path.  The callee's ret consumed our planted slot; pop the
     caller's own return address by hand (a plain Ret would unbalance the
     hardware call depth — we never executed a call). *)
  Asm.align a Layout.entry_align;
  Asm.bind a ret;
  Asm.ins a (Isa.CapPop ret_creg);
  Asm.ins a (Isa.Load (scr0, sp, 0));
  Asm.ins a (Isa.Addi (sp, sp, 8));
  Asm.ins a (Isa.Jmpr scr0);
  Asm.bind a trap;
  Asm.ins a (Isa.Trap 7);
  (a, entry, ret)

(* --- the full template --- *)

let gen_full ~target_addr ~target_tag config =
  let eff = config.eff in
  let sig_ = config.sig_ in
  let needs_slot = config.cross_process || eff.Types.stack_confidentiality in
  let flags =
    (if eff.Types.dcs_confidentiality then Kobj.kf_dcs_switched else 0)
    lor (if eff.Types.dcs_integrity && not eff.Types.dcs_confidentiality then
           Kobj.kf_dcs_base_adjusted
         else 0)
    lor (if eff.Types.stack_confidentiality then Kobj.kf_stack_switched else 0)
    lor if config.cross_process then Kobj.kf_proc_switched else 0
  in
  let a = Asm.create () in
  let entry = Asm.label "entry"
  and ret = Asm.label "ret"
  and warm = Asm.label "warm"
  and trap = Asm.label "trap"
  and rtrap = Asm.label "rtrap" in
  Asm.align a Layout.entry_align;
  Asm.bind a entry;
  Asm.ins a (Isa.RdTp scr2);
  (* P2: stack pointer validity. *)
  Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_stack_base));
  Asm.branch a (fun t -> Isa.Blt (sp, scr0, t)) trap;
  Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_stack_limit));
  Asm.branch a (fun t -> Isa.Bge (sp, scr0, t)) trap;
  (* Allocate a KCS entry (scr1). *)
  Asm.ins a (Isa.Load (scr1, scr2, Kobj.ts_kcs_top));
  Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_kcs_limit));
  Asm.branch a (fun t -> Isa.Bge (scr1, scr0, t)) trap;
  Asm.ins a (Isa.Addi (scr0, scr1, Kobj.kcs_entry_bytes));
  Asm.ins a (Isa.Store (scr2, Kobj.ts_kcs_top, scr0));
  (* Borrow r11 for the rest of the entry path. *)
  Asm.ins a (Isa.Store (scr1, Kobj.ke_scratch3, borrow));
  (* prepare_ret: move the caller's return address into the KCS. *)
  Asm.ins a (Isa.Load (scr0, sp, 0));
  Asm.ins a (Isa.Store (scr1, Kobj.ke_ret_addr, scr0));
  Asm.ins a (Isa.Store (scr1, Kobj.ke_saved_sp, sp));
  Asm.branch a (fun t -> Isa.Const (scr0, t)) ret;
  Asm.ins a (Isa.Store (scr1, Kobj.ke_proxy_ret, scr0));
  Asm.ins a (Isa.RdDepth scr0);
  Asm.ins a (Isa.Store (scr1, Kobj.ke_depth, scr0));
  Asm.ins a (Isa.Const (scr0, flags));
  Asm.ins a (Isa.Store (scr1, Kobj.ke_flags, scr0));
  Asm.ins a (Isa.Const (scr0, target_tag));
  Asm.ins a (Isa.Store (scr1, Kobj.ke_target_tag, scr0));
  (* Save the caller's return capability in the per-thread capability save
     area (indexed like the KCS), then create ours (P3). *)
  Asm.ins a (Isa.Load (borrow, scr2, Kobj.ts_kcs_base));
  Asm.ins a (Isa.Sub (borrow, scr1, borrow));
  Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_cap_save));
  Asm.ins a (Isa.Add (borrow, borrow, scr0));
  Asm.ins a (Isa.CapStore (borrow, 0, ret_creg));
  (* When switching stacks the caller's stack capability is parked too;
     the callee receives one for its own stack instead. *)
  if eff.Types.stack_confidentiality then
    Asm.ins a (Isa.CapStore (borrow, Layout.cap_bytes, stack_creg));
  Asm.branch a (fun t -> Isa.Const (borrow, t)) ret;
  Asm.ins a (Isa.Const (scr0, Layout.entry_align));
  Asm.ins a (Isa.CapAplDerive (ret_creg, borrow, scr0, Perm.Call));
  (* Process-tracking cache lookup (Sec. 6.1.2). *)
  if needs_slot then begin
    Asm.ins a (Isa.Const (scr0, target_tag));
    Asm.ins a (Isa.GetHwTag (scr0, scr0));
    Asm.ins a (Isa.Shli (scr0, scr0, 4));
    Asm.ins a (Isa.Addi (scr0, scr0, Kobj.ts_cache));
    Asm.ins a (Isa.Add (scr0, scr0, scr2));
    Asm.ins a (Isa.Store (scr1, Kobj.ke_scratch0, scr0));
    Asm.ins a (Isa.Load (borrow, scr0, 0));
    Asm.branch a (fun t -> Isa.Bnez (borrow, t)) warm;
    (* Cold path: upcall into the management thread (Sec. 6.1.2). *)
    Asm.ins a (Isa.Const (scr0, target_tag));
    Asm.ins a (Isa.Syscall System.sys_resolve);
    Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_scratch0));
    Asm.ins a (Isa.Load (borrow, scr0, 0));
    Asm.bind a warm
  end;
  (* track_process_call: switch the current process and its TLS. *)
  if config.cross_process then begin
    Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_current));
    Asm.ins a (Isa.Store (scr1, Kobj.ke_saved_current, scr0));
    Asm.ins a (Isa.Store (scr2, Kobj.ts_current, borrow));
    if config.tls_switch then begin
      Asm.ins a (Isa.RdFsBase scr0);
      Asm.ins a (Isa.Store (scr1, Kobj.ke_saved_fsbase, scr0));
      Asm.ins a (Isa.Load (scr0, borrow, Kobj.ps_tls));
      Asm.ins a (Isa.WrFsBase scr0)
    end
  end;
  if eff.Types.stack_confidentiality then begin
    (* isolate_pcall: switch to the callee's per-thread stack. *)
    Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_stack_base));
    Asm.ins a (Isa.Store (scr1, Kobj.ke_saved_stack_base, scr0));
    Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_stack_limit));
    Asm.ins a (Isa.Store (scr1, Kobj.ke_saved_stack_limit, scr0));
    Asm.ins a (Isa.Load (borrow, scr1, Kobj.ke_scratch0));
    Asm.ins a (Isa.Load (scr0, borrow, Layout.word_size));
    Asm.ins a (Isa.Store (scr1, Kobj.ke_saved_cache_stack, scr0));
    (* New valid window is [top - reserve, top); the cache slot is lowered
       so nested crossings into the same domain stack below us. *)
    Asm.ins a (Isa.Store (scr2, Kobj.ts_stack_limit, scr0));
    Asm.ins a (Isa.Addi (scr0, scr0, -Kobj.stack_frame_reserve));
    Asm.ins a (Isa.Store (borrow, Layout.word_size, scr0));
    Asm.ins a (Isa.Store (scr2, Kobj.ts_stack_base, scr0));
    (* New stack capability for the callee's stack region. *)
    Asm.ins a (Isa.Load (borrow, scr1, Kobj.ke_saved_cache_stack));
    Asm.ins a (Isa.Addi (borrow, borrow, -System.stack_bytes));
    Asm.ins a (Isa.Const (scr0, System.stack_bytes));
    Asm.ins a (Isa.CapAplDerive (stack_creg, borrow, scr0, Perm.Write));
    (* Copy in-stack arguments to the callee stack (per the signature). *)
    Asm.ins a (Isa.Load (borrow, scr1, Kobj.ke_saved_cache_stack));
    Asm.ins a (Isa.Addi (borrow, borrow, -(sig_.Types.stack_bytes + 8)));
    for i = 0 to (sig_.Types.stack_bytes / 8) - 1 do
      Asm.ins a (Isa.Load (scr0, sp, 8 + (8 * i)));
      Asm.ins a (Isa.Store (borrow, 8 + (8 * i), scr0))
    done;
    Asm.branch a (fun t -> Isa.Const (scr0, t)) ret;
    Asm.ins a (Isa.Store (borrow, 0, scr0));
    Asm.ins a (Isa.Mov (sp, borrow))
  end
  else begin
    (* No stack switch: redirect the in-place return slot to us. *)
    Asm.branch a (fun t -> Isa.Const (scr0, t)) ret;
    Asm.ins a (Isa.Store (sp, 0, scr0))
  end;
  if eff.Types.dcs_confidentiality then begin
    (* isolate_pcall: a fresh DCS with only the capability arguments. *)
    Asm.ins a (Isa.Const (scr0, sig_.Types.cap_args));
    Asm.ins a (Isa.DcsSwitch scr0)
  end
  else if eff.Types.dcs_integrity then begin
    (* isolate_pcall: hide the caller's non-argument DCS entries. *)
    Asm.ins a (Isa.DcsGetBase scr0);
    Asm.ins a (Isa.Store (scr1, Kobj.ke_saved_dcs_base, scr0));
    Asm.ins a (Isa.DcsGetTop scr0);
    Asm.ins a (Isa.Addi (scr0, scr0, -sig_.Types.cap_args));
    Asm.ins a (Isa.DcsSetBase scr0)
  end;
  Asm.ins a (Isa.Load (borrow, scr1, Kobj.ke_scratch3));
  if eff.Types.reg_confidentiality then begin
    (* Do not leak kernel pointers through our scratch registers. *)
    Asm.ins a (Isa.Const (scr1, 0));
    Asm.ins a (Isa.Const (scr2, 0))
  end;
  Asm.ins a (Isa.Const (scr0, target_addr));
  Asm.ins a (Isa.Jmpr scr0);
  (* ---- return path ---- *)
  Asm.align a Layout.entry_align;
  Asm.bind a ret;
  Asm.ins a (Isa.RdTp scr2);
  Asm.ins a (Isa.Load (scr1, scr2, Kobj.ts_kcs_top));
  Asm.ins a (Isa.Addi (scr1, scr1, -Kobj.kcs_entry_bytes));
  Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_kcs_base));
  Asm.branch a (fun t -> Isa.Blt (scr1, scr0, t)) rtrap;
  Asm.ins a (Isa.Store (scr1, Kobj.ke_scratch2, borrow));
  (* deisolate_pcall: restore DCS state. *)
  if eff.Types.dcs_confidentiality then begin
    Asm.ins a (Isa.Const (scr0, sig_.Types.cap_rets));
    Asm.ins a (Isa.DcsRestore scr0)
  end
  else if eff.Types.dcs_integrity then begin
    Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_saved_dcs_base));
    Asm.ins a (Isa.DcsSetBase scr0)
  end;
  if eff.Types.stack_confidentiality then begin
    (* Restore the cache slot (nesting) and the caller's stack window. *)
    Asm.ins a (Isa.Load (borrow, scr1, Kobj.ke_scratch0));
    Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_saved_cache_stack));
    Asm.ins a (Isa.Store (borrow, Layout.word_size, scr0));
    Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_saved_stack_base));
    Asm.ins a (Isa.Store (scr2, Kobj.ts_stack_base, scr0));
    Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_saved_stack_limit));
    Asm.ins a (Isa.Store (scr2, Kobj.ts_stack_limit, scr0))
  end;
  if config.cross_process then begin
    (* track_process_ret. *)
    Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_saved_current));
    Asm.ins a (Isa.Store (scr2, Kobj.ts_current, scr0));
    if config.tls_switch then begin
      Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_saved_fsbase));
      Asm.ins a (Isa.WrFsBase scr0)
    end
  end;
  (* Restore the caller's return (and, if parked, stack) capability. *)
  Asm.ins a (Isa.Load (borrow, scr2, Kobj.ts_kcs_base));
  Asm.ins a (Isa.Sub (borrow, scr1, borrow));
  Asm.ins a (Isa.Load (scr0, scr2, Kobj.ts_cap_save));
  Asm.ins a (Isa.Add (borrow, borrow, scr0));
  Asm.ins a (Isa.CapLoad (ret_creg, borrow, 0));
  if eff.Types.stack_confidentiality then
    Asm.ins a (Isa.CapLoad (stack_creg, borrow, Layout.cap_bytes));
  (* deprepare_ret: restore the caller's stack pointer and pop the KCS. *)
  Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_saved_sp));
  Asm.ins a (Isa.Addi (scr0, scr0, 8));
  Asm.ins a (Isa.Mov (sp, scr0));
  Asm.ins a (Isa.Store (scr2, Kobj.ts_kcs_top, scr1));
  Asm.ins a (Isa.Load (scr0, scr1, Kobj.ke_ret_addr));
  Asm.ins a (Isa.Load (borrow, scr1, Kobj.ke_scratch2));
  if eff.Types.reg_confidentiality then begin
    Asm.ins a (Isa.Const (scr1, 0));
    Asm.ins a (Isa.Const (scr2, 0))
  end;
  Asm.ins a (Isa.Jmpr scr0);
  Asm.bind a trap;
  Asm.ins a (Isa.Trap 7);
  Asm.bind a rtrap;
  Asm.ins a (Isa.Trap 8);
  (a, entry, ret)

(* --- template cache + installation --- *)

type generated = {
  g_entry : int; (* the proxy entry point the caller stub calls *)
  g_ret : int; (* the proxy return path (recorded in the KCS) *)
  g_bytes : int;
  g_config : config;
}

type cache = Proxy_cache.t

let cache_create = Proxy_cache.create

let template_count = Proxy_cache.template_count

let stats = Proxy_cache.stats

(* Generate and place a proxy for [config] at [base] (page-aligned space
   must already be mapped, executable + privileged, in the proxy domain).
   Returns the proxy's entry point, return path, and first free address. *)
let generate cache ~mem ~base ~target_addr ~target_tag config =
  let a, entry_l, ret_l =
    if is_lean config then gen_lean ~target_addr config
    else gen_full ~target_addr ~target_tag config
  in
  let code, last = Asm.assemble a ~base in
  List.iter
    (fun (addr, i) -> ignore (Dipc_hw.Memory.place_code mem ~addr [ i ]))
    code;
  Proxy_cache.record cache (key_of config) ~bytes:(last - base);
  {
    g_entry = Asm.target entry_l;
    g_ret = Asm.target ret_l;
    g_bytes = last - base;
    g_config = config;
  }
