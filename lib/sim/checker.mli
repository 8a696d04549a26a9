(** Online invariant checker over the structured trace stream.

    Attached as the trace sink, it mirrors the scheduler state the event
    stream implies and raises {!Violation} — carrying the recent event
    window — on the first event inconsistent with it.  Strictly
    observational: a run with the checker attached produces the same
    replay digest as one without.

    Invariants checked (the [v_invariant] strings): ["time-regression"],
    ["double-resume"], ["lost-wakeup"], ["duplicate-switch"],
    ["switch-mismatch"], ["charge-misattribution"], ["two-cpu-overlap"],
    ["dcs-underflow"], ["dcs-imbalance"], ["dcs-crossing-imbalance"],
    ["charge-conservation"], and the isolation invariants
    ["xtag-no-authority"] (a cross-tag data access carrying authority
    code 0 — nothing granted it), ["priv-outside-kernel"] (a privileged
    op retired without the priv bit or a posture override) and
    ["revocation-completeness"] (an asynchronous capability exercised
    after a [Cap_revoke] outdated its creation stamp).  See [checker.ml]
    for the catalogue with definitions. *)

type violation = {
  v_invariant : string;  (** which invariant, from the catalogue above *)
  v_detail : string;
  v_index : int;  (** 0-based index of the offending event *)
  v_window : Trace.event list;  (** recent events, offender last *)
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

type t

(** A fresh checker retaining the 16 most recent events for violation
    reports. *)
val create : unit -> t

(** Install this checker as [trace]'s sink. *)
val attach : t -> Trace.t -> unit

(** Clear [trace]'s sink. *)
val detach : Trace.t -> unit

(** End-of-run checks.  [quiescent] (default [true]) asserts every
    suspend saw a resume — pass [false] for deadline-stopped runs.
    [expect] checks per-category Charge-event totals against an
    externally accumulated breakdown (e.g. the kernel's lifetime
    totals). *)
val finish : ?quiescent:bool -> ?expect:Breakdown.t -> t -> unit

val events_seen : t -> int

val suspends : t -> int

val resumes : t -> int
