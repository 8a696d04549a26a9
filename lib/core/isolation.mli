(** Auto-generated user-level stubs (Secs. 3.3, 5.3.1): the isolation
    properties that need no privilege — register integrity and
    confidentiality, data-stack integrity — implemented around the call
    site (caller stub) and the entry point (callee stub), where the
    "compiler" can exploit liveness knowledge. *)

(** Isolation properties actually compiled under a security posture:
    [Permissive] (allow semantics) drops the user-level isolation
    sequences; [Strict] and [Audit] keep the requested set. *)
val effective_props : posture:Dipc_hw.Fault.posture -> Types.props -> Types.props

(** isolate_call / deisolate_call around a proxy call; the stub is itself
    a callable function. *)
val gen_caller_stub :
  proxy_entry:int -> sig_:Types.signature -> props:Types.props -> Asm.t * Asm.label

(** Callee stub wrapping the exported function; implements isolate_ret. *)
val gen_callee_stub :
  fn_addr:int -> sig_:Types.signature -> props:Types.props -> Asm.t * Asm.label

(** Place a stub into already-mapped executable pages; returns (entry
    address, first free address). *)
val place : Dipc_hw.Memory.t -> addr:int -> Asm.t * Asm.label -> int * int

(** The Sec. 5.3.1 co-optimisation experiment: (setjmp_ns, try_ns) per
    call site. *)
val exception_recovery_costs : unit -> float * float
