(* Instruction set of the simulated CODOMs machine.

   A small RISC-like ISA, x86-flavoured where the paper depends on it: the
   call instruction pushes the return address on the *data stack* (Sec. 5.2.3
   explains dIPC's KCS discipline exists precisely because x86 keeps return
   addresses in memory), and capability registers are separate from the
   general-purpose file (Sec. 4.2).

   Register conventions (used by stubs, proxies and test programs):
     r0..r7   argument / result registers (r0 = first arg and return value)
     r8..r11  callee-saved
     r12..r14 caller-saved scratch
     r15      stack pointer
*)

type reg = int

type creg = int

let num_regs = 16

let num_cregs = 8

let sp = 15

let scratch0 = 12

let scratch1 = 13

let scratch2 = 14

type instr =
  (* control *)
  | Nop
  | Halt
  | Trap of int
  | Syscall of int
  | Jmp of int
  | Jmpr of reg
  | Call of int
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
  | Load of reg * reg * int (* rd <- mem[rbase + off] *)
  | Store of reg * int * reg (* mem[rbase + off] <- rsrc *)
  (* thread / TLS state *)
  | RdTp of reg (* privileged: per-thread kernel struct pointer (gs-like) *)
  | WrFsBase of reg (* TLS segment base switch; costly (Sec. 6.1.2) *)
  | RdFsBase of reg
  (* dIPC hardware extension (Sec. 4.3) *)
  | GetHwTag of reg * reg (* privileged: rd <- hw domain tag of tag in rs *)
  | RdDepth of reg (* privileged: rd <- hardware call depth (for the KCS) *)
  (* capabilities (Sec. 4.2) *)
  | CapAplDerive of creg * reg * reg * Perm.t (* from own APL rights *)
  | CapRestrict of creg * creg * reg * reg * Perm.t (* narrow an existing cap *)
  | CapAsync of creg * creg * reg (* make async w/ revocation counter idx *)
  | CapRevoke of reg (* bump own revocation counter idx *)
  | CapClear of creg
  | CapPush of creg (* spill to the DCS *)
  | CapPop of creg
  | CapLoad of creg * reg * int (* from a capability-storage page *)
  | CapStore of reg * int * creg
  (* DCS bound management (privileged; used by proxies, Sec. 5.2.3) *)
  | DcsGetTop of reg (* unprivileged: current DCS depth *)
  | DcsGetBase of reg
  | DcsSetBase of reg
  | DcsSwitch of reg (* fresh DCS, copying r args entries *)
  | DcsRestore of reg (* restore saved DCS, copying r result entries *)

(* Per-instruction latency on the simulated out-of-order pipeline. *)
let cost = function
  | Nop | Trap _ | Const _ | Mov _ | Add _ | Addi _ | Sub _ | Mul _ | Shli _ ->
      Dipc_sim.Costs.instr_base
  | Halt -> 0.
  | Syscall _ -> Dipc_sim.Costs.instr_base (* entry/exit charged by machine *)
  | Jmp _ | Jmpr _ | Beq _ | Bne _ | Blt _ | Bge _ | Beqz _ | Bnez _ ->
      Dipc_sim.Costs.instr_branch
  | Call _ | Callr _ | Ret -> Dipc_sim.Costs.instr_call
  | Load _ | Store _ -> Dipc_sim.Costs.instr_mem
  | RdTp _ | RdFsBase _ | RdDepth _ -> Dipc_sim.Costs.instr_base
  | WrFsBase _ -> Dipc_sim.Costs.wrfsbase
  | GetHwTag _ -> Dipc_sim.Costs.instr_gethwtag
  | CapAplDerive _ | CapRestrict _ | CapAsync _ | CapRevoke _ ->
      Dipc_sim.Costs.instr_cap_derive
  | CapClear _ -> Dipc_sim.Costs.instr_base
  | CapPush _ | CapPop _ -> Dipc_sim.Costs.instr_cap_push_pop
  | CapLoad _ | CapStore _ -> Dipc_sim.Costs.instr_cap_loadstore
  | DcsGetTop _ | DcsGetBase _ | DcsSetBase _ -> Dipc_sim.Costs.instr_base
  | DcsSwitch _ | DcsRestore _ -> Dipc_sim.Costs.instr_cap_push_pop

let instr_bytes = 4

let pp_reg ppf r = if r = sp then Fmt.string ppf "sp" else Fmt.pf ppf "r%d" r

let pp ppf = function
  | Nop -> Fmt.string ppf "nop"
  | Halt -> Fmt.string ppf "halt"
  | Trap n -> Fmt.pf ppf "trap %d" n
  | Syscall n -> Fmt.pf ppf "syscall %d" n
  | Jmp a -> Fmt.pf ppf "jmp 0x%x" a
  | Jmpr r -> Fmt.pf ppf "jmpr %a" pp_reg r
  | Call a -> Fmt.pf ppf "call 0x%x" a
  | Callr r -> Fmt.pf ppf "callr %a" pp_reg r
  | Ret -> Fmt.string ppf "ret"
  | Beq (a, b, t) -> Fmt.pf ppf "beq %a,%a,0x%x" pp_reg a pp_reg b t
  | Bne (a, b, t) -> Fmt.pf ppf "bne %a,%a,0x%x" pp_reg a pp_reg b t
  | Blt (a, b, t) -> Fmt.pf ppf "blt %a,%a,0x%x" pp_reg a pp_reg b t
  | Bge (a, b, t) -> Fmt.pf ppf "bge %a,%a,0x%x" pp_reg a pp_reg b t
  | Beqz (a, t) -> Fmt.pf ppf "beqz %a,0x%x" pp_reg a t
  | Bnez (a, t) -> Fmt.pf ppf "bnez %a,0x%x" pp_reg a t
  | Const (r, v) -> Fmt.pf ppf "const %a,%d" pp_reg r v
  | Mov (d, s) -> Fmt.pf ppf "mov %a,%a" pp_reg d pp_reg s
  | Add (d, a, b) -> Fmt.pf ppf "add %a,%a,%a" pp_reg d pp_reg a pp_reg b
  | Addi (d, a, i) -> Fmt.pf ppf "addi %a,%a,%d" pp_reg d pp_reg a i
  | Sub (d, a, b) -> Fmt.pf ppf "sub %a,%a,%a" pp_reg d pp_reg a pp_reg b
  | Mul (d, a, b) -> Fmt.pf ppf "mul %a,%a,%a" pp_reg d pp_reg a pp_reg b
  | Shli (d, a, i) -> Fmt.pf ppf "shli %a,%a,%d" pp_reg d pp_reg a i
  | Load (d, b, o) -> Fmt.pf ppf "load %a,[%a+%d]" pp_reg d pp_reg b o
  | Store (b, o, s) -> Fmt.pf ppf "store [%a+%d],%a" pp_reg b o pp_reg s
  | RdTp r -> Fmt.pf ppf "rdtp %a" pp_reg r
  | WrFsBase r -> Fmt.pf ppf "wrfsbase %a" pp_reg r
  | RdFsBase r -> Fmt.pf ppf "rdfsbase %a" pp_reg r
  | GetHwTag (d, s) -> Fmt.pf ppf "gethwtag %a,%a" pp_reg d pp_reg s
  | RdDepth r -> Fmt.pf ppf "rddepth %a" pp_reg r
  | CapAplDerive (c, b, l, p) ->
      Fmt.pf ppf "capderive c%d,%a,%a,%a" c pp_reg b pp_reg l Perm.pp p
  | CapRestrict (c, c', b, l, p) ->
      Fmt.pf ppf "caprestrict c%d,c%d,%a,%a,%a" c c' pp_reg b pp_reg l Perm.pp p
  | CapAsync (c, c', r) -> Fmt.pf ppf "capasync c%d,c%d,%a" c c' pp_reg r
  | CapRevoke r -> Fmt.pf ppf "caprevoke %a" pp_reg r
  | CapClear c -> Fmt.pf ppf "capclear c%d" c
  | CapPush c -> Fmt.pf ppf "cappush c%d" c
  | CapPop c -> Fmt.pf ppf "cappop c%d" c
  | CapLoad (c, b, o) -> Fmt.pf ppf "capload c%d,[%a+%d]" c pp_reg b o
  | CapStore (b, o, c) -> Fmt.pf ppf "capstore [%a+%d],c%d" pp_reg b o c
  | DcsGetTop r -> Fmt.pf ppf "dcsgettop %a" pp_reg r
  | DcsGetBase r -> Fmt.pf ppf "dcsgetbase %a" pp_reg r
  | DcsSetBase r -> Fmt.pf ppf "dcssetbase %a" pp_reg r
  | DcsSwitch r -> Fmt.pf ppf "dcsswitch %a" pp_reg r
  | DcsRestore r -> Fmt.pf ppf "dcsrestore %a" pp_reg r
