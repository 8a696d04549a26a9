(* The dIPC system: processes, isolation domains and domain grants over a
   shared CODOMs page table (Secs. 5.2, 6.1).

   This is the OS side of Table 2's object model.  Everything the proxies
   touch at run time (thread structs, KCS, process structs, the
   process-tracking cache) lives in kernel-tagged machine memory; the
   OCaml records here are the kernel's bookkeeping for those addresses. *)

module Machine = Dipc_hw.Machine
module Memory = Dipc_hw.Memory
module Page_table = Dipc_hw.Page_table
module Apl = Dipc_hw.Apl
module Apl_cache = Dipc_hw.Apl_cache
module Layout = Dipc_hw.Layout
module Isa = Dipc_hw.Isa
module Perm = Dipc_hw.Perm
module Fault = Dipc_hw.Fault
module Breakdown = Dipc_sim.Breakdown

(* Syscall numbers of the dIPC kernel extension. *)
let sys_resolve = 1 (* cold path of process tracking (Sec. 6.1.2) *)

let sys_exit = 2 (* thread exit (also the fate of split callees, Sec. 5.4) *)

(* Per-thread data-stack size; stacks are lazily allocated per (thread,
   domain) by the resolve path. *)
let stack_bytes = 16384

(* Modelled kernel costs of the resolve paths (Sec. 6.1.2): the warm path
   walks the per-thread tree; the cold path upcalls into a management
   thread in the target process. *)
let resolve_warm_cost = 400.0

let resolve_cold_cost = 2600.0

type process = {
  pid : int;
  name : string;
  mutable def_tag : int; (* default domain (Table 2: dom_default) *)
  proc_struct : int; (* machine address of the process struct *)
  mutable tls_base : int;
  mutable alive : bool;
  mutable owned_tags : int list;
  mutable dipc_enabled : bool;
      (* POSIX fork temporarily disables dIPC in the child to preserve
         copy-on-write semantics; exec with a PIC image re-enables it at a
         unique virtual address (Sec. 6.1.3). *)
}

type thread = {
  t_ctx : Machine.ctx;
  t_struct : int; (* thread struct address (reached via RdTp) *)
  t_kcs_base : int;
  t_kcs_limit : int;
  t_home : process;
  t_stack_base : int;
  t_stack_top : int;
  t_stack_cap : Dipc_hw.Capability.t option;
      (* the thread-private stack capability, built once: what [Call.setup]
         reinstalls in c6 *)
  (* Host mirror of lazily allocated per-domain stacks: the "per-thread
     tree, indexed by the domain tag" of Sec. 6.1.2. *)
  t_stacks : (int, int) Hashtbl.t; (* tag -> stack top *)
}

type t = {
  machine : Machine.t;
  gvas : Gvas.t;
  kernel_tag : int;
  universal_tag : int; (* runtime trampolines every domain may call into *)
  stacks_tag : int;
  (* Data stacks live in a domain no APL points to: they are reachable
     only through each thread's private stack capability (c6), which is
     how dIPC isolates stacks between threads (Sec. 5.2.1). *)
  halt_addr : int; (* Ret-to-host sentinel *)
  exit_addr : int; (* thread-exit stub (Syscall sys_exit) *)
  mutable kmem_cursor : int;
  kmem_limit : int;
  mutable kpage_cursor : int; (* fresh kernel page mappings (cap areas) *)
  procs : (int, process) Hashtbl.t; (* pid -> process *)
  proc_of_struct : (int, process) Hashtbl.t; (* struct addr -> process *)
  tag_owner : (int, int) Hashtbl.t; (* tag -> owning pid *)
  threads : (int, thread) Hashtbl.t; (* ctx id -> thread *)
  mutable next_pid : int;
  mutable tls_optimized : bool; (* Sec. 6.1.2 TLS-mode optimization *)
  mutable resolve_warm : int;
  mutable resolve_cold : int;
  mutable fault_notices : int;
      (* faults the kernel notified to a calling process (Sec. 5.2.1
         unwinding) — the kernel-side face of the enforcement posture *)
  proxy_cache : Proxy_cache.t;
      (* Per-system by default so two runner domains never alias one
         cache; experiments that want the paper's build-time sharing pass
         one cache to several systems on a single domain. *)
}

(* --- kernel memory --- *)

let kmem_base = 1 lsl 20

let kmem_size = 8 lsl 20

let kalloc t bytes =
  let bytes = Layout.align_up bytes 64 in
  if t.kmem_cursor + bytes > t.kmem_limit then failwith "dIPC: kernel memory exhausted";
  let addr = t.kmem_cursor in
  t.kmem_cursor <- t.kmem_cursor + bytes;
  addr

let store t addr v = Memory.store_word t.machine.Machine.mem addr v

let load t addr = Memory.load_word t.machine.Machine.mem addr

(* Map a fresh kernel page with special attributes (capability-storage
   areas and the like). *)
let kmap_page t ?(cap_store = false) () =
  let addr = t.kpage_cursor in
  t.kpage_cursor <- t.kpage_cursor + Layout.page_size;
  Page_table.map t.machine.Machine.page_table ~addr ~count:1 ~tag:t.kernel_tag
    ~cap_store ();
  addr

(* --- system creation --- *)

let handle_syscall_ref :
    (t -> Machine.ctx -> int -> unit) ref =
  ref (fun _ _ _ -> ())

let create ?proxy_cache ?posture () =
  let machine = Machine.create () in
  (match posture with Some p -> Machine.set_posture machine p | None -> ());
  let apl = machine.Machine.apl in
  let kernel_tag = Apl.fresh_tag apl in
  let universal_tag = Apl.fresh_tag apl in
  let stacks_tag = Apl.fresh_tag apl in
  (* Kernel data region. *)
  Page_table.map machine.Machine.page_table ~addr:kmem_base
    ~count:(kmem_size / Layout.page_size)
    ~tag:kernel_tag ();
  (* Universal trampoline page: executable, privileged (the exit stub runs
     a syscall from it). *)
  let tramp_base = kmem_base + kmem_size in
  Page_table.map machine.Machine.page_table ~addr:tramp_base ~count:1
    ~tag:universal_tag ~writable:false ~executable:true ~priv_cap:true ();
  let halt_addr = tramp_base in
  let exit_addr = tramp_base + Layout.entry_align in
  ignore (Memory.place_code machine.Machine.mem ~addr:halt_addr [ Isa.Halt ]);
  ignore
    (Memory.place_code machine.Machine.mem ~addr:exit_addr
       [ Isa.Syscall sys_exit; Isa.Halt ]);
  let t =
    {
      machine;
      gvas = Gvas.create ();
      kernel_tag;
      universal_tag;
      stacks_tag;
      halt_addr;
      exit_addr;
      kmem_cursor = kmem_base;
      kmem_limit = kmem_base + kmem_size;
      kpage_cursor = tramp_base + Layout.page_size;
      procs = Hashtbl.create 16;
      proc_of_struct = Hashtbl.create 16;
      tag_owner = Hashtbl.create 16;
      threads = Hashtbl.create 16;
      next_pid = 1;
      tls_optimized = false;
      resolve_warm = 0;
      resolve_cold = 0;
      fault_notices = 0;
      proxy_cache =
        (match proxy_cache with
        | Some c -> c
        | None -> Proxy_cache.create ());
    }
  in
  Machine.set_syscall_handler machine (fun ctx n -> !handle_syscall_ref t ctx n);
  t

let machine t = t.machine

(* The system's enforcement posture lives on its machine; flipping it at
   runtime affects subsequent authorization checks (stubs already placed
   keep the isolation sequences they were compiled with). *)
let posture t = t.machine.Machine.posture

let set_posture t p = Machine.set_posture t.machine p

(* --- domain management (Sec. 5.2.2) --- *)

type domain_handle = { dom_tag : int; dom_perm : Perm.t }

exception Denied of string

let deny fmt = Fmt.kstr (fun s -> raise (Denied s)) fmt

let fresh_domain_tag t ~owner =
  let tag = Apl.fresh_tag t.machine.Machine.apl in
  Hashtbl.replace t.tag_owner tag owner.pid;
  owner.owned_tags <- tag :: owner.owned_tags;
  (* Every domain may call the runtime trampolines (return-to-host and
     thread exit); this stands in for the C runtime every process links. *)
  Apl.grant t.machine.Machine.apl ~src:tag ~dst:t.universal_tag Perm.Call;
  tag

(* dom_default: owner handle to the process's default domain. *)
let dom_default proc = { dom_tag = proc.def_tag; dom_perm = Perm.Owner }

(* dom_create: owner handle to a brand new, fully isolated domain (P1: not
   in any APL until granted). *)
let dom_create t proc =
  if not proc.alive then deny "dom_create: dead process";
  { dom_tag = fresh_domain_tag t ~owner:proc; dom_perm = Perm.Owner }

(* dom_copy: downgrade a handle before passing it on. *)
let dom_copy h perm =
  if not (Perm.includes h.dom_perm perm) then
    deny "dom_copy: cannot amplify %s to %s" (Perm.to_string h.dom_perm)
      (Perm.to_string perm);
  { h with dom_perm = perm }

(* dom_mmap: allocate memory into a domain (requires owner). *)
let dom_mmap t h ~bytes ?(readable = true) ?(writable = true)
    ?(executable = false) ?(cap_store = false) () =
  if not (Perm.equal h.dom_perm Perm.Owner) then deny "dom_mmap: owner required";
  let owner = Hashtbl.find t.tag_owner h.dom_tag in
  let addr = Gvas.alloc t.gvas ~owner ~bytes in
  Page_table.map t.machine.Machine.page_table ~addr
    ~count:(Layout.align_up bytes Layout.page_size / Layout.page_size)
    ~tag:h.dom_tag ~readable ~writable ~executable ~cap_store ();
  addr

(* dom_remap: reassign pages between two owned domains. *)
let dom_remap t ~dst ~src ~addr ~bytes =
  if not (Perm.equal dst.dom_perm Perm.Owner) then deny "dom_remap: dst owner required";
  if not (Perm.equal src.dom_perm Perm.Owner) then deny "dom_remap: src owner required";
  Page_table.retag t.machine.Machine.page_table ~addr
    ~count:(Layout.align_up bytes Layout.page_size / Layout.page_size)
    ~from_tag:src.dom_tag ~to_tag:dst.dom_tag

(* --- domain grants (Sec. 5.2.2) --- *)

type grant_handle = {
  g_src : int;
  g_dst : int;
  g_perm : Perm.t;
  mutable g_active : bool;
}

(* grant_create: allow Src to access Dst with the handle's permission.
   Requires an owner handle for Src (it is Src's APL being changed). *)
let grant_create t ~src ~dst =
  if not (Perm.equal src.dom_perm Perm.Owner) then
    deny "grant_create: owner permission on src required";
  if Perm.equal dst.dom_perm Perm.Nil then deny "grant_create: nil dst handle";
  Apl.grant t.machine.Machine.apl ~src:src.dom_tag ~dst:dst.dom_tag dst.dom_perm;
  { g_src = src.dom_tag; g_dst = dst.dom_tag; g_perm = dst.dom_perm; g_active = true }

let grant_revoke t g =
  if g.g_active then begin
    Apl.revoke t.machine.Machine.apl ~src:g.g_src ~dst:g.g_dst;
    g.g_active <- false
  end

(* --- processes --- *)

let create_process t ~name =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let proc_struct = kalloc t Kobj.proc_struct_bytes in
  let proc =
    {
      pid;
      name;
      def_tag = 0;
      proc_struct;
      tls_base = 0;
      alive = true;
      owned_tags = [];
      dipc_enabled = true;
    }
  in
  Hashtbl.replace t.procs pid proc;
  Hashtbl.replace t.proc_of_struct proc_struct proc;
  proc.def_tag <- fresh_domain_tag t ~owner:proc;
  (* TLS block in the process's own domain. *)
  proc.tls_base <-
    dom_mmap t
      { dom_tag = proc.def_tag; dom_perm = Perm.Owner }
      ~bytes:Layout.page_size ();
  store t (proc_struct + Kobj.ps_pid) pid;
  store t (proc_struct + Kobj.ps_tls) proc.tls_base;
  store t (proc_struct + Kobj.ps_tag) proc.def_tag;
  proc

let find_process t pid = Hashtbl.find_opt t.procs pid

(* POSIX fork (Sec. 6.1.3): the child starts with dIPC *disabled* so the
   parent's pages can go copy-on-write without confusing the shared page
   table; it cannot register or request entry points until it execs. *)
let fork_process t parent ~name =
  if not parent.alive then deny "fork: dead parent";
  let child = create_process t ~name in
  child.dipc_enabled <- false;
  child

(* POSIX exec with a position-independent image: dIPC is re-enabled and
   the process is (re)loaded at a unique virtual address — which our
   create-time GVAS allocation already guarantees. *)
let exec_process _t proc = proc.dipc_enabled <- true

let require_dipc proc ~op =
  if not proc.dipc_enabled then
    deny "%s: process %s has dIPC disabled (forked, not yet exec'ed)" op proc.name

let kill_process _t proc = proc.alive <- false

(* --- threads (Sec. 5.2.1) --- *)

(* Allocate a data stack in the APL-invisible stacks domain; it is only
   reachable through a thread's stack capability. *)
let alloc_stack t ~owner_pid =
  let addr = Gvas.alloc t.gvas ~owner:owner_pid ~bytes:stack_bytes in
  Page_table.map t.machine.Machine.page_table ~addr
    ~count:(stack_bytes / Layout.page_size)
    ~tag:t.stacks_tag ();
  addr

(* The thread-private stack capability (Sec. 5.2.1): a synchronous
   capability pinned to the thread's outermost frame, installed in c6 by
   the kernel when the thread is created or redirected. *)
let stack_cap ctx ~base ~top =
  Some
    {
      Dipc_hw.Capability.base;
      length = top - base;
      perm = Perm.Write;
      scope =
        Dipc_hw.Capability.Synchronous
          { thread = ctx.Machine.id; depth = 0; epoch = 0 };
    }

let stack_creg = 6 (* ABI: c6 holds the thread's stack capability *)

let create_thread t proc =
  if not proc.alive then deny "create_thread: dead process";
  let tstruct = kalloc t Kobj.thread_struct_bytes in
  let kcs_bytes = 32 * Kobj.kcs_entry_bytes in
  let kcs = kalloc t kcs_bytes in
  let stack_base = alloc_stack t ~owner_pid:proc.pid in
  let stack_top = stack_base + stack_bytes in
  let ctx = Machine.new_ctx t.machine ~pc:0 ~sp_value:stack_top in
  ctx.Machine.tp <- tstruct;
  ctx.Machine.fsbase <- proc.tls_base;
  (* Per-thread capability save area (one cap slot per KCS entry). *)
  let cap_save = kmap_page t ~cap_store:true () in
  store t (tstruct + Kobj.ts_cap_save) cap_save;
  (* Seed c7 with a permanently valid return capability to the runtime
     trampoline, so proxies can unconditionally save/restore it. *)
  ctx.Machine.cregs.(7) <-
    Some
      {
        Dipc_hw.Capability.base = t.halt_addr;
        length = Layout.entry_align;
        perm = Perm.Call;
        scope =
          Dipc_hw.Capability.Asynchronous
            { owner_tag = t.universal_tag; counter = 0; value = 0 };
      };
  (* The thread-private stack capability. *)
  let stack_cap = stack_cap ctx ~base:stack_base ~top:stack_top in
  ctx.Machine.cregs.(stack_creg) <- stack_cap;
  store t (tstruct + Kobj.ts_kcs_top) kcs;
  store t (tstruct + Kobj.ts_kcs_base) kcs;
  store t (tstruct + Kobj.ts_kcs_limit) (kcs + kcs_bytes);
  store t (tstruct + Kobj.ts_stack_base) stack_base;
  store t (tstruct + Kobj.ts_stack_limit) stack_top;
  store t (tstruct + Kobj.ts_current) proc.proc_struct;
  store t (tstruct + Kobj.ts_errno) Types.err_none;
  let th =
    {
      t_ctx = ctx;
      t_struct = tstruct;
      t_kcs_base = kcs;
      t_kcs_limit = kcs + kcs_bytes;
      t_home = proc;
      t_stack_base = stack_base;
      t_stack_top = stack_top;
      t_stack_cap = stack_cap;
      t_stacks = Hashtbl.create 8;
    }
  in
  Hashtbl.replace t.threads ctx.Machine.id th;
  th

let thread_of_ctx t ctx = Hashtbl.find t.threads ctx.Machine.id

let errno t th = load t (th.t_struct + Kobj.ts_errno)

let set_errno t th v = store t (th.t_struct + Kobj.ts_errno) v

let current_process t th =
  Hashtbl.find t.proc_of_struct (load t (th.t_struct + Kobj.ts_current))

(* --- the process-tracking resolve path (Sec. 6.1.2) --- *)

(* Fill the per-thread cache array entry for [tag]: the hardware tag
   indexes the array; the entry holds the target process struct and the
   (lazily allocated) per-domain stack top. *)
let resolve t th ~tag =
  let ctx = th.t_ctx in
  let pid =
    match Hashtbl.find_opt t.tag_owner tag with
    | Some pid -> pid
    | None -> Fault.raise_fault ~pc:ctx.Machine.pc (Fault.Software_trap 101)
  in
  let proc =
    match Hashtbl.find_opt t.procs pid with
    | Some p when p.alive -> p
    | Some _ | None -> Fault.raise_fault ~pc:ctx.Machine.pc (Fault.Software_trap 102)
  in
  let stack_top =
    match Hashtbl.find_opt th.t_stacks tag with
    | Some top ->
        t.resolve_warm <- t.resolve_warm + 1;
        Machine.charge_as t.machine ctx Breakdown.Kernel resolve_warm_cost;
        top
    | None ->
        (* Cold path: upcall allocates the OS structures. *)
        t.resolve_cold <- t.resolve_cold + 1;
        Machine.charge_as t.machine ctx Breakdown.Kernel resolve_cold_cost;
        let base = alloc_stack t ~owner_pid:pid in
        let top = base + stack_bytes in
        Hashtbl.replace th.t_stacks tag top;
        top
  in
  let hw, _hit = Apl_cache.ensure ctx.Machine.apl_cache tag in
  store t (th.t_struct + Kobj.ts_cache_proc hw) proc.proc_struct;
  store t (th.t_struct + Kobj.ts_cache_stack hw) stack_top;
  hw

(* Pre-warm the fast path so benchmarks measure steady state, like the
   paper's warmup runs. *)
let prewarm t th ~tag = ignore (resolve t th ~tag)

(* --- syscall dispatch --- *)

let handle_syscall t ctx n =
  let th = thread_of_ctx t ctx in
  if n = sys_resolve then ignore (resolve t th ~tag:ctx.Machine.regs.(Isa.scratch0))
  else if n = sys_exit then ctx.Machine.halted <- true
  else Fault.raise_fault ~pc:ctx.Machine.pc (Fault.Software_trap (100 + n))

let () = handle_syscall_ref := handle_syscall
