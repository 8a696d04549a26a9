(** Functional miniature of CHERI's domain crossing (the Table 1
    comparison point): sealed capability pairs, CCall/CReturn through
    exceptions, and a trusted stack.

    One function per operation.  A denial is a {!Fault.t} carrying the
    fault kind and the caller-supplied canonical faulting pc the CODOMs
    machine would raise for the equivalent attack; {!Fault.verdict}
    decides what the cpu's posture does with it (downgradeable denials
    proceed under [Audit]/[Permissive]; structural ones deny under every
    posture). *)

type perm = Exec | Data

type cap = { c_base : int; c_len : int; c_perm : perm; c_sealed : int option }

val cap : base:int -> len:int -> perm:perm -> cap

val is_sealed : cap -> bool

(** Seal under [otype].  A sealed authority, an authority not covering
    the otype, or an already sealed operand → [Cap_invalid] (structural
    under every posture, hence no [cpu]). *)
val seal : authority:cap -> otype:int -> pc:int -> cap -> (cap, Fault.t) result

type domain = { d_code : cap; d_data : cap; d_otype : int }

(** Seal [code] and [data] under [otype]; fails as {!seal} does. *)
val make_domain :
  authority:cap -> otype:int -> pc:int -> code:cap -> data:cap ->
  (domain, Fault.t) result

type cpu = {
  mutable pcc : cap;
  mutable idc : cap;
  mutable trusted_stack : (cap * cap) list;
  mutable exceptions : int;  (** every crossing traps *)
  mutable posture : Fault.posture;
      (** enforcement posture ([Strict] at creation) *)
  mutable audited : int;  (** denials downgraded by the [Audit] posture *)
}

val cpu : pcc:cap -> idc:cap -> cpu

(** Sealed capabilities confer no memory authority. *)
val can_access : cap -> addr:int -> bool

(** CCall: checked unsealing + trusted-stack push, via an exception.
    Otype-mismatched pair → [No_permission Call]; unsealed operand →
    [Not_entry_point]; non-executable code → [Exec_violation].  Posture
    downgrades force-unseal and cross anyway. *)
val ccall : cpu -> pc:int -> domain -> (unit, Fault.t) result

(** CReturn: empty trusted stack → [Dcs_bounds] (structural). *)
val creturn : cpu -> pc:int -> (unit, Fault.t) result

(** Modelled cost of one crossing: [Archcmp.exception_cost]. *)
val crossing_cost_ns : float

(** Data access through [cap]: sealed or out-of-bounds →
    [No_permission perm]. *)
val access :
  cpu -> cap -> pc:int -> addr:int -> perm:Perm.t -> (unit, Fault.t) result
