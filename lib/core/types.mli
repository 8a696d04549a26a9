(** Shared dIPC types: entry-point signatures and isolation properties
    (Table 2 and Sec. 5.2.3). *)

(** Entry point signature: register/stack/capability argument counts. *)
type signature = {
  args : int;  (** argument registers, passed in r0..r7 *)
  rets : int;  (** result registers, r0.. *)
  stack_bytes : int;  (** in-stack argument bytes (8-aligned) *)
  cap_args : int;  (** capability arguments passed on the DCS *)
  cap_rets : int;  (** capability results returned on the DCS *)
}

(** Smart constructor; validates register counts and stack alignment. *)
val signature :
  ?args:int ->
  ?rets:int ->
  ?stack_bytes:int ->
  ?cap_args:int ->
  ?cap_rets:int ->
  unit ->
  signature

val signature_equal : signature -> signature -> bool

(** Isolation properties (Sec. 5.2.3), independently requested by caller
    and callee. *)
type props = {
  reg_integrity : bool;  (** save/restore live registers (user stub) *)
  reg_confidentiality : bool;  (** zero non-argument/result registers *)
  stack_integrity : bool;  (** capabilities over stack args + unused area *)
  stack_confidentiality : bool;  (** split stacks (proxy) *)
  dcs_integrity : bool;  (** raise the DCS base (proxy) *)
  dcs_confidentiality : bool;  (** separate DCS per domain (proxy) *)
}

val props_none : props

(** The paper's "Low" policy: calls still go through proxies (P2/P3), no
    state isolation requested. *)
val props_low : props

(** The paper's "High" policy: full mutual process-style isolation. *)
val props_high : props

val props_union : props -> props -> props

(** Error codes delivered on fault unwinding (thread-struct errno). *)
val err_none : int

val err_callee_fault : int

val err_callee_killed : int

val err_timeout : int
