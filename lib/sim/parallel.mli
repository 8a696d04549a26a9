(** Work-queue runner: shard independent deterministic simulation runs
    across OCaml 5 domains.

    The unit of parallelism is one whole simulation run (one
    [Engine]/[Trace]/[Rng]/[Checker] universe), never anything inside a
    run: tasks must not share mutable state.  Results are keyed by
    submission index and merged in submission order, so the output is
    independent of completion order — the determinism contract
    (DESIGN.md Sec. 10) that lets callers assert parallel output
    byte-identical to serial. *)

type 'a outcome = {
  o_id : string;  (** the caller's run id, echoed back *)
  o_value : 'a;
  o_wall_s : float;  (** host seconds spent inside this run *)
  o_minor_words : float;
      (** words allocated in the running domain's minor heap during the
          run (per-domain counter: a per-run allocation estimate) *)
  o_worker : int;  (** which worker domain ran it (0 = the caller) *)
}

(** [Domain.recommended_domain_count ()]: the default shard count. *)
val default_jobs : unit -> int

(** [run ?jobs tasks] drains the task queue with [jobs] workers (the
    calling domain plus [jobs - 1] spawned domains) and returns one
    outcome per task, in submission order regardless of completion
    order.  [jobs] defaults to {!default_jobs}, is clamped to
    [1 .. Array.length tasks], and [jobs = 1] degenerates to a plain
    serial loop on the calling domain (no domain is spawned).

    If tasks raise, every remaining task still runs; then the exception
    of the lowest-indexed failed task is re-raised on the caller (with
    its original backtrace), so failure reporting is deterministic
    too. *)
val run : ?jobs:int -> (string * (unit -> 'a)) array -> 'a outcome array

(** [map ?jobs f xs]: {!run} over [f] applied to each element, returning
    plain values in input order. Ids are the element indices. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
