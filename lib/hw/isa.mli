(** Instruction set of the simulated CODOMs machine: a small RISC-like
    ISA, x86-flavoured where the paper depends on it (call pushes the
    return address on the data stack, Sec. 5.2.3), with capability
    registers separate from the general-purpose file (Sec. 4.2).

    Register conventions: r0..r7 arguments/results, r8..r11 callee-saved,
    r12..r14 caller-saved scratch, r15 the stack pointer. *)

type reg = int

type creg = int

val num_regs : int

val num_cregs : int

val sp : reg

val scratch0 : reg

val scratch1 : reg

val scratch2 : reg

type instr =
  (* control *)
  | Nop
  | Halt
  | Trap of int
  | Syscall of int
  | Jmp of int
  | Jmpr of reg
  | Call of int  (** pushes the return address at [sp-8] *)
  | Callr of reg
  | Ret
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Bge of reg * reg * int
  | Beqz of reg * int
  | Bnez of reg * int
  (* integer *)
  | Const of reg * int
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Addi of reg * reg * int
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | Shli of reg * reg * int
  (* memory *)
  | Load of reg * reg * int  (** rd <- mem[rbase + off] *)
  | Store of reg * int * reg  (** mem[rbase + off] <- rsrc *)
  (* thread / TLS state *)
  | RdTp of reg  (** privileged: per-thread kernel struct pointer *)
  | WrFsBase of reg  (** TLS segment base switch; costly (Sec. 6.1.2) *)
  | RdFsBase of reg
  (* dIPC hardware extension (Sec. 4.3) *)
  | GetHwTag of reg * reg  (** privileged: APL-cache hardware tag lookup *)
  | RdDepth of reg  (** privileged: hardware call depth (for the KCS) *)
  (* capabilities (Sec. 4.2) *)
  | CapAplDerive of creg * reg * reg * Perm.t  (** from own APL rights *)
  | CapRestrict of creg * creg * reg * reg * Perm.t
  | CapAsync of creg * creg * reg  (** attach a revocation counter *)
  | CapRevoke of reg  (** bump own revocation counter *)
  | CapClear of creg
  | CapPush of creg  (** spill to the DCS *)
  | CapPop of creg
  | CapLoad of creg * reg * int  (** capability-storage pages only *)
  | CapStore of reg * int * creg
  (* DCS bound management (privileged; proxies, Sec. 5.2.3) *)
  | DcsGetTop of reg
  | DcsGetBase of reg
  | DcsSetBase of reg
  | DcsSwitch of reg  (** fresh DCS, copying r args entries *)
  | DcsRestore of reg

(** Modelled latency of one instruction, ns. *)
val cost : instr -> float

val instr_bytes : int

val pp : Format.formatter -> instr -> unit
