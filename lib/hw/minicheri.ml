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
   test the crossing discipline, plus the modelled switch cost. *)

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
   a permit-seal capability covering the otype value. *)
let seal ~authority ~otype c =
  if otype < authority.c_base || otype >= authority.c_base + authority.c_len then
    Error "seal: otype outside the sealing authority"
  else if is_sealed c then Error "seal: already sealed"
  else Ok { c with c_sealed = Some otype }

type domain = { d_code : cap; d_data : cap; d_otype : int }

(* Build a sealed domain descriptor pair. *)
let make_domain ~authority ~otype ~code ~data =
  match (seal ~authority ~otype code, seal ~authority ~otype data) with
  | Ok c, Ok d -> Ok { d_code = c; d_data = d; d_otype = otype }
  | Error e, _ | _, Error e -> Error e

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
    posture = Fault.get_default_posture ();
    audited = 0;
  }

(* Sealed capabilities confer no memory authority until unsealed. *)
let can_access c ~addr =
  (not (is_sealed c)) && addr >= c.c_base && addr < c.c_base + c.c_len

(* CCall: checked unsealing + trusted-stack push, via an exception. *)
let ccall cpu domain =
  cpu.exceptions <- cpu.exceptions + 1;
  match (domain.d_code.c_sealed, domain.d_data.c_sealed) with
  | Some a, Some b when a = b && a = domain.d_otype ->
      if domain.d_code.c_perm <> Exec then Error "ccall: code capability not executable"
      else begin
        cpu.trusted_stack <- (cpu.pcc, cpu.idc) :: cpu.trusted_stack;
        cpu.pcc <- { domain.d_code with c_sealed = None };
        cpu.idc <- { domain.d_data with c_sealed = None };
        Ok ()
      end
  | _ -> Error "ccall: otype mismatch or unsealed operand"

(* CReturn: pop the trusted stack, again via an exception. *)
let creturn cpu =
  cpu.exceptions <- cpu.exceptions + 1;
  match cpu.trusted_stack with
  | (pcc, idc) :: rest ->
      cpu.pcc <- pcc;
      cpu.idc <- idc;
      cpu.trusted_stack <- rest;
      Ok ()
  | [] -> Error "creturn: trusted stack empty"

(* Modelled cost of one crossing (exception entry + handler + return). *)
let crossing_cost_ns = 400.0

(* --- structured fault API ---

   The [_at] variants report denials as {!Fault.t} values carrying the
   same fault kind and the same canonical faulting pc the CODOMs machine
   would raise for the equivalent attack, so the adversarial differential
   suites can compare outcomes across backends without per-backend
   special-casing.  They also honour the enforcement posture: a
   downgradeable denial under Audit is counted (and the operation
   proceeds); under Permissive it proceeds silently.  Structural faults
   (broken encodings, trusted-stack underflow) deny under every
   posture. *)

let denied cpu ?addr ~pc kind =
  if cpu.posture = Fault.Strict || not (Fault.downgradeable kind) then
    Error { Fault.kind; pc; addr }
  else begin
    if cpu.posture = Fault.Audit then cpu.audited <- cpu.audited + 1;
    Ok ()
  end

(* CCall with structured faults: a mismatched otype pair is a forged
   entry descriptor (No_permission Call, as a CODOMs call the APL denies);
   an unsealed operand is not a legal entry point; non-executable code is
   an exec violation.  A posture downgrade force-unseals and crosses
   anyway, mirroring the CODOMs machine letting a denied transfer
   retire. *)
let ccall_at cpu ~pc domain =
  cpu.exceptions <- cpu.exceptions + 1;
  let go () =
    cpu.trusted_stack <- (cpu.pcc, cpu.idc) :: cpu.trusted_stack;
    cpu.pcc <- { domain.d_code with c_sealed = None };
    cpu.idc <- { domain.d_data with c_sealed = None };
    Ok ()
  in
  let gated kind = match denied cpu ~pc kind with
    | Error _ as e -> e
    | Ok () -> go ()
  in
  match (domain.d_code.c_sealed, domain.d_data.c_sealed) with
  | Some a, Some b when a = b && a = domain.d_otype ->
      if domain.d_code.c_perm <> Exec then gated Fault.Exec_violation
      else go ()
  | Some _, Some _ -> gated (Fault.No_permission Perm.Call)
  | _ -> gated Fault.Not_entry_point

(* CReturn with structured faults: popping an empty trusted stack is the
   CHERI image of a DCS underflow — structural, denied under every
   posture. *)
let creturn_at cpu ~pc =
  cpu.exceptions <- cpu.exceptions + 1;
  match cpu.trusted_stack with
  | (pcc, idc) :: rest ->
      cpu.pcc <- pcc;
      cpu.idc <- idc;
      cpu.trusted_stack <- rest;
      Ok ()
  | [] -> denied cpu ~pc (Fault.Dcs_bounds "trusted stack empty")

(* Data access through a capability: sealed or out-of-bounds accesses are
   permission denials ([perm] names the attempted access, as the CODOMs
   machine's [No_permission] payload does). *)
let access_at cpu c ~pc ~addr ~perm =
  if can_access c ~addr then Ok ()
  else denied cpu ~addr ~pc (Fault.No_permission perm)

(* Sealing under an authority that does not cover the otype forges a
   capability: Cap_invalid, structural under every posture. *)
let seal_at ~authority ~otype ~pc c =
  match seal ~authority ~otype c with
  | Ok c -> Ok c
  | Error _ -> Error { Fault.kind = Fault.Cap_invalid; pc; addr = None }
