(** Functional miniature of Mondrian Memory Protection (the Table 1
    comparison point): per-domain privileged permission tables and
    switch/return gates costing a pipeline flush.

    One function per operation.  A denial is a {!Fault.t} with the fault
    kind and canonical pc the CODOMs machine raises for the equivalent
    attack; {!Fault.verdict} decides what the cpu's posture does with it
    (downgradeable denials retire under [Audit]/[Permissive]). *)

type perm = None_ | Read_only | Read_write | Execute_read

val allows : perm -> perm -> bool

type pd = {
  pd_id : int;
  mutable regions : region list;
  mutable table_writes : int;  (** cost proxy for grants/revocations *)
}

and region = { r_base : int; r_len : int; r_perm : perm }

val pd : id:int -> pd

(** Privileged table edits (the supervisor's job). *)
val grant : pd -> base:int -> len:int -> perm:perm -> unit

val revoke : pd -> base:int -> len:int -> unit

val can_access : pd -> addr:int -> perm:perm -> bool

type cpu = {
  mutable current : pd;
  gates : (int, gate) Hashtbl.t;
  domains : (int, pd) Hashtbl.t;
  mutable cross_stack : int list;
  mutable pipeline_flushes : int;
  mutable posture : Fault.posture;
      (** enforcement posture ([Strict] at creation) *)
  mutable audited : int;  (** denials downgraded by the [Audit] posture *)
}

and gate = { g_addr : int; g_from : int; g_to : int }

val cpu : initial:pd -> cpu

val add_domain : cpu -> pd -> unit

val add_gate : cpu -> addr:int -> from_pd:int -> to_pd:int -> unit

(** Cross through a switch gate (legal only from its source domain):
    non-gate address → [Not_entry_point]; wrong source domain →
    [No_permission Call]; dangling target domain → [Cap_invalid]
    (structural). *)
val call_gate : cpu -> pc:int -> addr:int -> (unit, Fault.t) result

(** Gate return: empty cross stack → [Dcs_bounds]; dangling caller
    domain → [Cap_invalid] (both structural). *)
val return_gate : cpu -> pc:int -> (unit, Fault.t) result

(** [Archcmp.pipeline_flush]: one per gate crossing. *)
val switch_cost_ns : float

(** [Archcmp.prot_table_update]: one per {!grant} or {!revoke}. *)
val table_write_cost_ns : float

(** Data access against the current domain's table: denial →
    [No_permission perm] ([needed] is the table-side permission, [perm]
    the machine-vocabulary payload). *)
val access :
  cpu -> pc:int -> addr:int -> needed:perm -> perm:Perm.t ->
  (unit, Fault.t) result
