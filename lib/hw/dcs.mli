(** Per-thread Domain Capability Stack (Sec. 4.2): capability spill
    storage bounded by registers only privileged code may move.  dIPC's
    proxies implement DCS integrity (raise the base) and confidentiality
    (switch to a fresh stack) on it (Sec. 5.2.3). *)

val default_capacity : int

type t = {
  mutable slots : Capability.t option array;
  mutable base : int;  (** lowest index unprivileged code may pop past *)
  mutable top : int;  (** next free slot *)
  mutable spare : Capability.t option array;
      (** an empty detached stack kept by {!restore} for the next
          {!switch}; [[||]] when there is none *)
}

val create : ?capacity:int -> unit -> t

val depth : t -> int

val base : t -> int

(** Unprivileged push/pop; fault on overflow or popping below base. *)
val push : t -> pc:int -> Capability.t -> unit

val pop : t -> pc:int -> Capability.t

(** Privileged: DCS integrity. *)
val set_base : t -> pc:int -> int -> unit

(** Detached stack state, for the matching {!restore}. *)
type saved

(** Privileged: install an empty stack with the top [args] entries
    copied over (DCS confidentiality + integrity). *)
val switch : t -> pc:int -> args:int -> saved

(** Privileged: restore a detached stack, copying the top [rets] entries
    of the current stack back as results.  The callee stack is cleared
    and recycled as the next {!switch}'s stack. *)
val restore : t -> pc:int -> rets:int -> saved -> unit
