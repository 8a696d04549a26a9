(* Shared dIPC types: entry-point signatures and isolation properties
   (Table 2 and Sec. 5.2.3). *)

(* Signature of an entry point: "number of input/output registers and stack
   size" (Table 2), extended with capability-argument counts since the DCS
   properties need them. *)
type signature = {
  args : int; (* argument registers, passed in r0..r7 *)
  rets : int; (* result registers, r0.. *)
  stack_bytes : int; (* in-stack argument bytes (8-aligned) *)
  cap_args : int; (* capability arguments passed on the DCS *)
  cap_rets : int; (* capability results returned on the DCS *)
}

let signature ?(args = 0) ?(rets = 0) ?(stack_bytes = 0) ?(cap_args = 0)
    ?(cap_rets = 0) () =
  if args < 0 || args > 8 || rets < 0 || rets > 8 then
    invalid_arg "Types.signature: register counts must be within 0..8";
  if stack_bytes < 0 || stack_bytes land 7 <> 0 then
    invalid_arg "Types.signature: stack bytes must be 8-aligned";
  { args; rets; stack_bytes; cap_args; cap_rets }

let signature_equal a b =
  a.args = b.args && a.rets = b.rets && a.stack_bytes = b.stack_bytes
  && a.cap_args = b.cap_args && a.cap_rets = b.cap_rets

(* Isolation properties (Sec. 5.2.3).  Each one is independently requested
   by caller and/or callee; the effective set for a proxy is the union
   (Table 2: "per-entry policy is entries[i].policy U entry.entries[i].policy",
   with the caller/callee activation rules of Sec. 5.2.3). *)
type props = {
  reg_integrity : bool; (* save/restore live registers (user stub) *)
  reg_confidentiality : bool; (* zero non-argument/result registers (stub) *)
  stack_integrity : bool; (* capabilities over stack args + unused area *)
  stack_confidentiality : bool; (* split stacks, proxy-implemented *)
  dcs_integrity : bool; (* raise DCS base in proxy *)
  dcs_confidentiality : bool; (* separate DCS per domain, proxy *)
}

let props_none =
  {
    reg_integrity = false;
    reg_confidentiality = false;
    stack_integrity = false;
    stack_confidentiality = false;
    dcs_integrity = false;
    dcs_confidentiality = false;
  }

(* The paper's "Low" policy: a minimal non-trivial policy — calls are still
   forced through proxies (P2/P3) but no state isolation is requested. *)
let props_low = props_none

(* The paper's "High" policy: equivalent to full process isolation. *)
let props_high =
  {
    reg_integrity = true;
    reg_confidentiality = true;
    stack_integrity = true;
    stack_confidentiality = true;
    dcs_integrity = true;
    dcs_confidentiality = true;
  }

let props_union a b =
  {
    reg_integrity = a.reg_integrity || b.reg_integrity;
    reg_confidentiality = a.reg_confidentiality || b.reg_confidentiality;
    stack_integrity = a.stack_integrity || b.stack_integrity;
    stack_confidentiality = a.stack_confidentiality || b.stack_confidentiality;
    dcs_integrity = a.dcs_integrity || b.dcs_integrity;
    dcs_confidentiality = a.dcs_confidentiality || b.dcs_confidentiality;
  }

(* Error codes delivered on cross-process fault unwinding (Sec. 5.2.1),
   stored in the thread struct's errno slot. *)
let err_none = 0

let err_callee_fault = 1

let err_callee_killed = 2

let err_timeout = 3
