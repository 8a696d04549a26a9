(* A functional miniature of CHERI's domain-crossing mechanism, for the
   Table 1 comparison (Sec. 4.1 contrasts CODOMs with CHERI [64]).

   CHERI crosses protection domains with sealed capability pairs: a
   domain is represented by a code capability and a data capability
   sealed under the same object type (otype).  CCall checks the pair,
   unseals both into PCC (program counter capability) and IDC (invoked
   data capability), and pushes the caller's state on a trusted stack;
   CReturn pops it.  In the CHERI implementations the paper compares
   against, both operations trap into a privileged exception handler —
   which is exactly the cost CODOMs avoids (Table 1: "S: 2x exception").

   This model is deliberately small: enough semantics to demonstrate and
   test the crossing discipline, plus the modelled switch cost.

   Every fallible operation reports a denial as a {!Fault.t} carrying
   the fault kind and the caller-supplied canonical pc the CODOMs
   machine raises for the equivalent attack, so the adversarial suites
   compare outcomes across backends without per-backend special-casing.
   [Fault.verdict] decides what the cpu's posture does with a denial. *)

type perm = Exec | Data

type cap = {
  c_base : int;
  c_len : int;
  c_perm : perm;
  c_sealed : int option; (* object type when sealed *)
}

let cap ~base ~len ~perm = { c_base = base; c_len = len; c_perm = perm; c_sealed = None }

let is_sealed c = c.c_sealed <> None

(* Sealing requires authority over the otype; we model that authority as
   a permit-seal capability covering the otype value.  A sealed authority
   confers nothing until unsealed, and a sealed capability cannot be
   sealed again.  Each violation forges a capability: Cap_invalid,
   structural under every posture, hence no cpu. *)
let seal ~authority ~otype ~pc c =
  if
    is_sealed authority || is_sealed c
    || otype < authority.c_base
    || otype >= authority.c_base + authority.c_len
  then Error { Fault.kind = Fault.Cap_invalid; pc; addr = None }
  else Ok { c with c_sealed = Some otype }

type domain = { d_code : cap; d_data : cap; d_otype : int }

(* Build a sealed domain descriptor pair. *)
let make_domain ~authority ~otype ~pc ~code ~data =
  match (seal ~authority ~otype ~pc code, seal ~authority ~otype ~pc data) with
  | Ok c, Ok d -> Ok { d_code = c; d_data = d; d_otype = otype }
  | (Error _ as e), _ | _, (Error _ as e) -> e

type cpu = {
  mutable pcc : cap; (* program counter capability *)
  mutable idc : cap; (* invoked data capability *)
  mutable trusted_stack : (cap * cap) list;
  mutable exceptions : int; (* every crossing traps *)
  mutable posture : Fault.posture; (* enforcement posture, as Machine *)
  mutable audited : int; (* denials downgraded by the Audit posture *)
}

let cpu ~pcc ~idc =
  {
    pcc;
    idc;
    trusted_stack = [];
    exceptions = 0;
    posture = Fault.Strict;
    audited = 0;
  }

(* Sealed capabilities confer no memory authority until unsealed. *)
let can_access c ~addr =
  (not (is_sealed c)) && addr >= c.c_base && addr < c.c_base + c.c_len

(* The miniature's reaction to [Fault.verdict]: a denial is an [Error];
   an audited one is counted and proceeds. *)
let deny cpu ?addr ~pc kind =
  match Fault.verdict cpu.posture kind with
  | `Deny -> Error { Fault.kind; pc; addr }
  | `Audit ->
      cpu.audited <- cpu.audited + 1;
      Ok ()
  | `Proceed -> Ok ()

(* CCall: checked unsealing + trusted-stack push, via an exception.  A
   mismatched otype pair is a forged entry descriptor (No_permission
   Call, as a CODOMs call the APL denies); an unsealed operand is not a
   legal entry point; non-executable code is an exec violation.  A
   posture downgrade force-unseals and crosses anyway, mirroring the
   CODOMs machine letting a denied transfer retire. *)
let ccall cpu ~pc domain =
  cpu.exceptions <- cpu.exceptions + 1;
  let checked =
    match (domain.d_code.c_sealed, domain.d_data.c_sealed) with
    | Some a, Some b when a = b && a = domain.d_otype ->
        if domain.d_code.c_perm <> Exec then deny cpu ~pc Fault.Exec_violation
        else Ok ()
    | Some _, Some _ -> deny cpu ~pc (Fault.No_permission Perm.Call)
    | _ -> deny cpu ~pc Fault.Not_entry_point
  in
  match checked with
  | Error _ as e -> e
  | Ok () ->
      cpu.trusted_stack <- (cpu.pcc, cpu.idc) :: cpu.trusted_stack;
      cpu.pcc <- { domain.d_code with c_sealed = None };
      cpu.idc <- { domain.d_data with c_sealed = None };
      Ok ()

(* CReturn: pop the trusted stack, again via an exception.  Popping an
   empty stack is the CHERI image of a DCS underflow — structural,
   denied under every posture. *)
let creturn cpu ~pc =
  cpu.exceptions <- cpu.exceptions + 1;
  match cpu.trusted_stack with
  | (pcc, idc) :: rest ->
      cpu.pcc <- pcc;
      cpu.idc <- idc;
      cpu.trusted_stack <- rest;
      Ok ()
  | [] -> deny cpu ~pc (Fault.Dcs_bounds "trusted stack empty")

(* Modelled cost of one crossing (exception entry + handler + return). *)
let crossing_cost_ns = Archcmp.exception_cost

(* Data access through a capability: sealed or out-of-bounds accesses are
   permission denials ([perm] names the attempted access, as the CODOMs
   machine's [No_permission] payload does). *)
let access cpu c ~pc ~addr ~perm =
  if can_access c ~addr then Ok ()
  else deny cpu ~addr ~pc (Fault.No_permission perm)
