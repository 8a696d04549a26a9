(** Functional miniature of CHERI's domain crossing (the Table 1
    comparison point): sealed capability pairs, CCall/CReturn through
    exceptions, and a trusted stack. *)

type perm = Exec | Data

type cap = { c_base : int; c_len : int; c_perm : perm; c_sealed : int option }

val cap : base:int -> len:int -> perm:perm -> cap

val is_sealed : cap -> bool

(** Seal under [otype]; the authority capability must cover the otype. *)
val seal : authority:cap -> otype:int -> cap -> (cap, string) result

type domain = { d_code : cap; d_data : cap; d_otype : int }

val make_domain :
  authority:cap -> otype:int -> code:cap -> data:cap -> (domain, string) result

type cpu = {
  mutable pcc : cap;
  mutable idc : cap;
  mutable trusted_stack : (cap * cap) list;
  mutable exceptions : int;  (** every crossing traps *)
  mutable posture : Fault.posture;
      (** enforcement posture (sampled from
          {!Fault.get_default_posture} at creation) *)
  mutable audited : int;  (** denials downgraded by the [Audit] posture *)
}

val cpu : pcc:cap -> idc:cap -> cpu

(** Sealed capabilities confer no memory authority. *)
val can_access : cap -> addr:int -> bool

(** CCall: checked unsealing + trusted-stack push, via an exception. *)
val ccall : cpu -> domain -> (unit, string) result

val creturn : cpu -> (unit, string) result

val crossing_cost_ns : float

(** {2 Structured fault API}

    The [_at] variants report denials as {!Fault.t} values carrying the
    same fault kind and the caller-supplied canonical faulting pc the
    CODOMs machine would raise for the equivalent attack, and honour the
    enforcement posture (downgradeable denials proceed under
    [Audit]/[Permissive]; structural ones deny under every posture). *)

(** CCall: otype-mismatched pair → [No_permission Call]; unsealed
    operand → [Not_entry_point]; non-executable code → [Exec_violation].
    Posture downgrades force-unseal and cross anyway. *)
val ccall_at : cpu -> pc:int -> domain -> (unit, Fault.t) result

(** CReturn: empty trusted stack → [Dcs_bounds] (structural). *)
val creturn_at : cpu -> pc:int -> (unit, Fault.t) result

(** Data access through [cap]: sealed or out-of-bounds →
    [No_permission perm]. *)
val access_at :
  cpu -> cap -> pc:int -> addr:int -> perm:Perm.t -> (unit, Fault.t) result

(** Sealing under an authority not covering the otype → [Cap_invalid]
    (structural under every posture, hence no [cpu]). *)
val seal_at :
  authority:cap -> otype:int -> pc:int -> cap -> (cap, Fault.t) result
