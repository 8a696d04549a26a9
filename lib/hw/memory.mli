(** Simulated physical memory: word data, capability cells (kept apart so
    capabilities cannot be forged bit-by-bit) and instruction slots.  All
    protection checks live in {!Machine}; this is the raw backing
    store. *)

type t

val create : unit -> t

(** 8-byte word at an 8-aligned address (0 when never written). *)
val load_word : t -> int -> int

val store_word : t -> int -> int -> unit

(** Capability cell at a 32-aligned address. *)
val load_cap : t -> int -> Capability.t option

val store_cap : t -> int -> Capability.t -> unit

(** Instruction at a 4-aligned address. *)
val fetch : t -> int -> Isa.instr option

(** Place a straight-line instruction sequence; returns the first address
    past it. *)
val place_code : t -> addr:int -> Isa.instr list -> int

(** Version of the code store: bumped by every {!place_code} call, so
    cached decodings (the machine's translated-block cache) can detect
    self-modified or re-placed code. *)
val code_generation : t -> int
