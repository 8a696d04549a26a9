(** Conservative parallel DES coordinator: partition one simulation into
    shards, each owning a private event heap, advanced in conservative
    lookahead windows with cross-shard messages exchanged at window
    barriers and merged into a deterministic (time, source shard,
    emission seqno) total order — so traces, digests and stdout are
    byte-identical whether the window bodies run serially or on
    separate OCaml domains (DESIGN.md Sec. 14). *)

(** One shard: an independent sequential simulator. *)
type 'msg stepper = {
  st_next : unit -> float;
      (** earliest pending local event, [infinity] when drained; must
          include everything previously delivered to the shard *)
  st_lookahead : float;
      (** the shard's promise: every message it emits from now on is
          timestamped at least [st_next () + st_lookahead] (derive it
          from the minimum cross-shard latency — IPI cost, NIC wire
          time); [infinity] for a shard that never emits *)
  st_step :
    inbox_at:float array ->
    inbox_pay:'msg array ->
    inbox_len:int ->
    upto:float ->
    emit:(dst:int -> at:float -> 'msg -> unit) ->
    int;
      (** deliver the first [inbox_len] messages of the parallel
          timestamp/payload arrays (already merged into the
          deterministic total order; the arrays are reused scratch
          buffers — never read past [inbox_len] or retain them), process
          local events with time [<= upto], emit cross-shard messages,
          return the number of events processed.  Messages at exactly
          the window bound are delivered *after* the receiver's local
          events at that instant.  An input-free shard may process past
          [upto] (pipelining) as long as its emissions respect the
          bound. *)
}

(** Barrier-merge tie-break for equal timestamps.  [Src_then_seq] is the
    contract; [Reversed] exists only for the mutation smoke tests that
    pin the tie-break as digest-visible. *)
type tiebreak = Src_then_seq | Reversed

(** A shard emitted a message timestamped inside the current window —
    its real cross-shard latency is below its declared lookahead. *)
exception Causality_violation of string

(** A window made no progress: a stepper broke the [st_next] /
    [st_lookahead] contract. *)
exception Stalled of string

type 'msg t

(** [enforce] (default true) validates every emission against the
    window bound; [false] is for tests demonstrating the downstream
    checker catching the corruption instead. *)
val create :
  ?tiebreak:tiebreak -> ?enforce:bool -> 'msg stepper array -> 'msg t

(** Drive all shards to completion.  [par:true] runs each window body on
    its own domain (never more than [jobs]); results are byte-identical
    either way. *)
val run : ?par:bool -> ?jobs:int -> 'msg t -> unit

(** Window barriers executed. *)
val rounds : 'msg t -> int

(** Cross-shard messages delivered. *)
val delivered : 'msg t -> int
