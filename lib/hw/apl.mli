(** Access Protection Lists (Sec. 4.1): per-domain-tag permission lists.
    A domain always has implicit write access to its own tag. *)

type t

val create : unit -> t

(** Allocate a fresh domain tag. *)
val fresh_tag : t -> int

(** Effective permission of code tagged [src] on pages tagged [dst]:
    [Write] when [src = dst], [Nil] for any pair never granted
    (including a negative tag such as the "no domain yet" tag [-1]). *)
val permission : t -> src:int -> dst:int -> Perm.t

(** Install (or, with [Perm.Nil], remove) a grant in [src]'s APL.
    Software [Owner] handles map to hardware write.  Raises
    [Invalid_argument] when [src = dst] or either tag is negative. *)
val grant : t -> src:int -> dst:int -> Perm.t -> unit

val revoke : t -> src:int -> dst:int -> unit

(** Remove a domain: its own APL and every grant pointing at it. *)
val drop_tag : t -> int -> unit

(** Bumped on every change; lets caches detect staleness. *)
val generation : t -> int
