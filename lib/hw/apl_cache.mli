(** Per-hardware-thread software-managed APL cache (Secs. 4.1, 4.3):
    maps recently executed domain tags to small hardware domain tags
    (5 bits for the 32-entry cache), which index the per-thread
    process-tracking array (Sec. 6.1.2). *)

val capacity : int

type t

val create : unit -> t

val reset : t -> unit

(** Hardware tag of [tag] if resident (counts a hit or miss): the
    smallest slot holding it.  [-1] marks an empty slot and is never
    resident. *)
val lookup : t -> int -> int option

(** Install [tag], evicting the least recently used entry; returns the
    hardware tag it landed on. *)
val install : t -> int -> int

(** Lookup-or-install; the boolean is true on a hit. *)
val ensure : t -> int -> int * bool

(** (hits, misses, refills). *)
val stats : t -> int * int * int

(** Flush counter: bumped by every {!reset}, so cached decisions taken
    against the cache's contents (the machine's translated-block cache)
    can detect an injected or deliberate flush. *)
val generation : t -> int

val resident_tags : t -> int list
