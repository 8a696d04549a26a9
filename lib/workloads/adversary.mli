(** Adversarial scenario corpus: hostile-domain programs attacking the
    isolation mechanisms (forged/replayed capabilities, revocation
    races, proxy misuse, out-of-domain accesses, DCS abuse), with
    per-backend adapters and backend-neutral outcome digests.

    Every scenario pins the exact deterministic fault — kind AND
    faulting pc — the strict machine must raise; the cross-backend
    subset pins the same canonical (kind, pc) on all three isolation
    backends. *)

module Fault = Dipc_hw.Fault

type backend = Codoms | Minicheri_b | Minimmp_b

val all_backends : backend list

val backend_name : backend -> string

type attack =
  | Benign  (** legal cross-domain round trip: the clean-load baseline *)
  | Oob_load  (** load from a domain nothing grants *)
  | Oob_store  (** store to a domain nothing grants *)
  | Bad_crossing  (** jump into a domain without call rights *)
  | Misaligned_entry  (** call-permission entry at a misaligned address *)
  | Return_underflow  (** pop a crossing that never happened *)
  | Forged_cap  (** mint/replay a capability without authority *)
  | Use_after_revoke  (** exercise authority after its revocation *)
  | Exec_jump  (** jump to a readable but non-executable page *)
  | Overderive  (** CapAplDerive beyond the domain's APL rights *)
  | Priv_escalation  (** privileged instruction, unprivileged page *)
  | Cap_storage_write  (** CapStore to a non-cap-storage page *)
  | Dcs_overflow  (** push past the DCS capacity *)
  | Revoke_inflight  (** APL revocation storm racing warm crossings *)
  | Retcap_leak  (** use a callee-frame capability after its frame died *)

val attack_name : attack -> string

(** Attacks expressible on all three backends (includes [Benign]). *)
val cross_attacks : attack list

(** CODOMs-specific attacks. *)
val machine_attacks : attack list

(** Expected (fault kind, canonical faulting pc) under the [Strict]
    posture; [None] for [Benign].  Compare via {!Fault.kind_code} —
    payload strings are representative only. *)
val expect : attack -> (Fault.kind * int) option

type outcome =
  | Ran of int  (** completed; payload = posture-downgraded denials *)
  | Faulted of Fault.t
  | Refused of string  (** API-level denial before any code ran *)

(** Run [attacks] in order.  The CODOMs sweep shares ONE machine across
    the sequence, rewriting the attack program in place and
    revoking/re-granting APL entries between scenarios (hostile to
    stale superblock translations); the miniatures build fresh model
    state per attack.  [reference] forces the CODOMs machine's
    reference stepper.  [posture] overrides the enforcement posture of the
    machine/cpu built for the sweep (the global default otherwise) —
    per-sweep state, safe under parallel runner domains.  Returns
    outcomes and total modelled cost (ns). *)
val sweep :
  ?reference:bool ->
  ?posture:Fault.posture ->
  backend ->
  attack list ->
  outcome list * float

val run_one : ?reference:bool -> ?posture:Fault.posture -> backend -> attack -> outcome

(** Fold outcomes into a replay digest over backend-neutral facts only
    (fault kind code + faulting pc, or audited-denial count): equal
    digests across backends mean the architectural outcomes agree. *)
val digest_outcomes : outcome list -> string

type scenario = {
  s_attack : attack;
  s_name : string;
  s_backends : backend list;
  s_expect : (Fault.kind * int) option;
}

(** The directed corpus, cross-backend attacks first. *)
val corpus : scenario list

(** Deterministic LCG-seeded attack schedule over {!cross_attacks}. *)
val random_attacks : seed:int -> n:int -> attack list

(** Proxy re-entry: discover the proxy entry from the caller stub, then
    call past it into the proxy body.  Returns the outcome and the pc
    the fault must carry ([Not_entry_point] under [Strict]). *)
val proxy_reentry : ?reference:bool -> unit -> outcome * int

(** Wrong-signature import: resolution must be refused at proxy-request
    time (P4) — returns [Refused _] without running any code. *)
val wrong_signature : unit -> outcome
