(* Thread flow across processes: running cross-domain calls, fault
   notification and KCS unwinding (Sec. 5.2.1), and cross-process call
   time-outs via thread splitting (Sec. 5.4 — designed but not implemented
   in the paper's prototype; implemented here). *)

module Machine = Dipc_hw.Machine
module Memory = Dipc_hw.Memory
module Capability = Dipc_hw.Capability
module Fault = Dipc_hw.Fault
module Layout = Dipc_hw.Layout

(* --- top-level call setup --- *)

(* Prepare [th] to execute the function at [fn] with register arguments
   [args]; the function's final Ret lands on the runtime's halt
   trampoline. *)
let setup t (th : System.thread) ~fn ~args =
  let ctx = th.System.t_ctx in
  (* Fresh top-level state. *)
  System.store t (th.System.t_struct + Kobj.ts_kcs_top) th.System.t_kcs_base;
  System.store t (th.System.t_struct + Kobj.ts_stack_base) th.System.t_stack_base;
  System.store t (th.System.t_struct + Kobj.ts_stack_limit) th.System.t_stack_top;
  System.store t (th.System.t_struct + Kobj.ts_current)
    th.System.t_home.System.proc_struct;
  System.store t (th.System.t_struct + Kobj.ts_errno) Types.err_none;
  ctx.Machine.fsbase <- th.System.t_home.System.tls_base;
  if ctx.Machine.depth > 0 then Machine.force_unwind_depth ctx ~depth:0;
  (* The host's invocation is itself a call frame: the function's final
     Ret (to the halt trampoline) pops it. *)
  Machine.enter_frame ctx;
  ctx.Machine.dcs_saved <- [];
  (* Reinstall the thread's private stack capability (c6): a fault may
     have abandoned a callee-stack capability there. *)
  ctx.Machine.cregs.(System.stack_creg) <- th.System.t_stack_cap;
  let sp = th.System.t_stack_top - 8 in
  Memory.store_word t.System.machine.System.Machine.mem sp t.System.halt_addr;
  ctx.Machine.regs.(Dipc_hw.Isa.sp) <- sp;
  List.iteri (fun i v -> if i < 8 then ctx.Machine.regs.(i) <- v) args;
  Machine.force_transfer t.System.machine ctx ~target:fn

(* --- fault notification and KCS unwinding (Sec. 5.2.1) --- *)

(* Unwind the thread's KCS after a fault or kill: pop entries until one
   whose calling process is still alive, flag the error, and resume at
   that entry's proxy return path.  Returns [`Dead] when no living caller
   remains (the thread terminates). *)
let unwind t (th : System.thread) ~code =
  let ctx = th.System.t_ctx in
  let tstruct = th.System.t_struct in
  let base = System.load t (tstruct + Kobj.ts_kcs_base) in
  let top = ref (System.load t (tstruct + Kobj.ts_kcs_top)) in
  (* Process owning the frames we are currently looking at. *)
  let cur_struct = ref (System.load t (tstruct + Kobj.ts_current)) in
  let result = ref `Dead in
  let scanning = ref true in
  while !scanning do
    if !top <= base then scanning := false
    else begin
      let e = !top - Kobj.kcs_entry_bytes in
      let flags = System.load t (e + Kobj.ke_flags) in
      let caller_struct =
        if flags land Kobj.kf_proc_switched <> 0 then
          System.load t (e + Kobj.ke_saved_current)
        else !cur_struct
      in
      match Hashtbl.find_opt t.System.proc_of_struct caller_struct with
      | Some p when p.System.alive ->
          (* Resume the caller at this proxy's return path with an error
             flagged (like an errno value). *)
          t.System.fault_notices <- t.System.fault_notices + 1;
          System.store t (tstruct + Kobj.ts_kcs_top) !top;
          System.store t (tstruct + Kobj.ts_errno) code;
          let d = System.load t (e + Kobj.ke_depth) in
          Machine.force_unwind_depth ctx ~depth:(max 0 (min (d - 1) ctx.Machine.depth));
          Machine.force_transfer t.System.machine ctx
            ~target:(System.load t (e + Kobj.ke_proxy_ret));
          scanning := false;
          result := `Resumed
      | Some _ | None ->
          (* Dead caller: discard the entry, undoing any machine state it
             left pending. *)
          if flags land Kobj.kf_dcs_switched <> 0 then begin
            match ctx.Machine.dcs_saved with
            | _ :: rest -> ctx.Machine.dcs_saved <- rest
            | [] -> ()
          end;
          cur_struct := caller_struct;
          top := e
    end
  done;
  !result

(* Run to completion, applying fault notification: a fault in a callee is
   flagged to the nearest living calling process; a thread with no living
   caller dies with the fault. *)
let rec run t (th : System.thread) ?(fuel = 10_000_000) () =
  let ctx = th.System.t_ctx in
  match Machine.run ~fuel t.System.machine ctx with
  | () -> Ok ctx.Machine.regs.(0)
  | exception Fault.Fault f -> begin
      match unwind t th ~code:Types.err_callee_fault with
      | `Resumed -> run t th ~fuel ()
      | `Dead -> Error f
    end

(* Convenience: set up and run a call, returning r0. *)
let exec t th ~fn ~args =
  setup t th ~fn ~args;
  run t th ()

(* --- asynchronous calls (Sec. 5.4) ---

   "One-sided communication ... can be supported in the same way as other
   asynchronous calls by creating additional threads": the call runs on a
   fresh thread of the calling process and the caller collects the result
   later. *)

type async = { a_thread : System.thread; a_fn : int; a_args : int list }

let exec_async t proc ~fn ~args =
  let th = System.create_thread t proc in
  setup t th ~fn ~args;
  { a_thread = th; a_fn = fn; a_args = args }

let await t async = run t async.a_thread ()

(* A process kill while one of its frames is live on [th]: redirect the
   thread to the kernel, which unwinds exactly like a crash (Sec. 5.2.1). *)
let deliver_kill t th =
  match unwind t th ~code:Types.err_callee_killed with
  | `Resumed -> `Resumed
  | `Dead ->
      th.System.t_ctx.Machine.halted <- true;
      `Dead

(* --- cross-process call time-outs (Sec. 5.4) --- *)

(* Refresh a capability so it stays usable on the split-off thread: the
   kernel re-mints it with the same range and rights but a scope that does
   not depend on the original hardware thread. *)
let refresh_cap t (cap : Capability.t) =
  match cap.Capability.scope with
  | Capability.Asynchronous _ -> cap
  | Capability.Synchronous _ ->
      {
        cap with
        Capability.scope =
          Capability.Asynchronous
            { owner_tag = t.System.universal_tag; counter = 0; value = 0 };
      }

(* Split [th] at its topmost stack-switched KCS entry: the caller (the
   original thread) resumes at that proxy with a time-out error; the
   callee continues on a duplicated kernel thread structure and KCS, and
   will exit when it returns into the proxy that produced the split.
   Returns the callee-side thread.  Only legal when the timed-out entry
   used a separate stack (stack confidentiality), as the paper requires. *)
let split_timeout t (th : System.thread) =
  let ctx = th.System.t_ctx in
  let m = t.System.machine in
  let mem = m.System.Machine.mem in
  let tstruct = th.System.t_struct in
  let base = System.load t (tstruct + Kobj.ts_kcs_base) in
  let top = System.load t (tstruct + Kobj.ts_kcs_top) in
  (* Find the topmost stack-switched entry. *)
  let rec find e =
    if e < base then None
    else begin
      let flags = System.load t (e + Kobj.ke_flags) in
      if flags land Kobj.kf_stack_switched <> 0 then Some e
      else find (e - Kobj.kcs_entry_bytes)
    end
  in
  match find (top - Kobj.kcs_entry_bytes) with
  | None -> Error "split_timeout: no stack-switched entry (needs stack confidentiality)"
  | Some entry ->
      (* --- callee side: duplicate thread struct, KCS and cap save area --- *)
      let new_tstruct = System.kalloc t Kobj.thread_struct_bytes in
      let kcs_bytes = th.System.t_kcs_limit - th.System.t_kcs_base in
      let new_kcs = System.kalloc t kcs_bytes in
      let new_cap_save = System.kmap_page t ~cap_store:true () in
      (* Copy the thread struct. *)
      for off = 0 to (Kobj.thread_struct_bytes / 8) - 1 do
        System.store t (new_tstruct + (off * 8)) (System.load t (tstruct + (off * 8)))
      done;
      (* Copy the KCS at identical offsets. *)
      for off = 0 to (kcs_bytes / 8) - 1 do
        System.store t (new_kcs + (off * 8)) (System.load t (base + (off * 8)))
      done;
      (* Copy and refresh the capability save slots. *)
      let old_cap_save = System.load t (tstruct + Kobj.ts_cap_save) in
      let rec copy_caps off =
        if off < kcs_bytes then begin
          (match Memory.load_cap mem (old_cap_save + off) with
          | Some cap -> Memory.store_cap mem (new_cap_save + off) (refresh_cap t cap)
          | None -> ());
          copy_caps (off + Layout.cap_bytes)
        end
      in
      copy_caps 0;
      System.store t (new_tstruct + Kobj.ts_kcs_base) new_kcs;
      System.store t (new_tstruct + Kobj.ts_kcs_top) (new_kcs + (top - base));
      System.store t (new_tstruct + Kobj.ts_kcs_limit) (new_kcs + kcs_bytes);
      System.store t (new_tstruct + Kobj.ts_cap_save) new_cap_save;
      (* The split callee exits when it returns into this proxy. *)
      System.store t (new_kcs + (entry - base) + Kobj.ke_ret_addr) t.System.exit_addr;
      (* Clone the machine context. *)
      let new_ctx =
        Machine.new_ctx m ~pc:ctx.Machine.pc
          ~sp_value:ctx.Machine.regs.(Dipc_hw.Isa.sp)
      in
      Array.blit ctx.Machine.regs 0 new_ctx.Machine.regs 0 Dipc_hw.Isa.num_regs;
      Array.iteri
        (fun i c -> new_ctx.Machine.cregs.(i) <- Option.map (refresh_cap t) c)
        ctx.Machine.cregs;
      new_ctx.Machine.tp <- new_tstruct;
      new_ctx.Machine.fsbase <- ctx.Machine.fsbase;
      new_ctx.Machine.depth <- ctx.Machine.depth;
      new_ctx.Machine.epochs <- Array.copy ctx.Machine.epochs;
      new_ctx.Machine.dcs_saved <- ctx.Machine.dcs_saved;
      new_ctx.Machine.dcs.Dipc_hw.Dcs.slots <-
        Array.map (Option.map (refresh_cap t)) ctx.Machine.dcs.Dipc_hw.Dcs.slots;
      new_ctx.Machine.dcs.Dipc_hw.Dcs.base <- ctx.Machine.dcs.Dipc_hw.Dcs.base;
      new_ctx.Machine.dcs.Dipc_hw.Dcs.top <- ctx.Machine.dcs.Dipc_hw.Dcs.top;
      Machine.force_transfer m new_ctx ~target:ctx.Machine.pc;
      let callee_proc = System.current_process t th in
      let stack_base = System.load t (new_tstruct + Kobj.ts_stack_base) in
      let stack_top = System.load t (new_tstruct + Kobj.ts_stack_limit) in
      let callee_th =
        {
          System.t_ctx = new_ctx;
          t_struct = new_tstruct;
          t_kcs_base = new_kcs;
          t_kcs_limit = new_kcs + kcs_bytes;
          t_home = callee_proc;
          t_stack_base = stack_base;
          t_stack_top = stack_top;
          t_stack_cap = System.stack_cap new_ctx ~base:stack_base ~top:stack_top;
          t_stacks = Hashtbl.copy th.System.t_stacks;
        }
      in
      Hashtbl.replace t.System.threads new_ctx.Machine.id callee_th;
      (* --- caller side: unwind the original thread to the split entry --- *)
      System.store t (tstruct + Kobj.ts_kcs_top) (entry + Kobj.kcs_entry_bytes);
      System.store t (tstruct + Kobj.ts_errno) Types.err_timeout;
      (* The caller-side state switches recorded above the split entry
         belong to the callee now. *)
      let d = System.load t (entry + Kobj.ke_depth) in
      Machine.force_unwind_depth ctx ~depth:(max 0 (min (d - 1) ctx.Machine.depth));
      Machine.force_transfer m ctx
        ~target:(System.load t (entry + Kobj.ke_proxy_ret));
      Ok callee_th
