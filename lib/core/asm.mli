(** Tiny two-pass assembler for generating proxies and stubs: symbolic
    labels, forward branches, and alignment directives (entry points must
    sit on 64-byte boundaries, Sec. 4.1). *)

module Isa = Dipc_hw.Isa

type label

(** A fresh unbound label; the name only appears in error messages. *)
val label : string -> label

type t

val create : unit -> t

(** Append one instruction. *)
val ins : t -> Isa.instr -> unit

(** Append an instruction that takes the label's resolved address. *)
val branch : t -> (int -> Isa.instr) -> label -> unit

(** Define the label at the current position. *)
val bind : t -> label -> unit

(** Pad with Nop to the given alignment. *)
val align : t -> int -> unit

(** Resolved address of a label; only valid after {!assemble}. *)
val target : label -> int

(** Lay out at [base]: returns (address, instruction) pairs and the first
    address past the code. *)
val assemble : t -> base:int -> (int * Isa.instr) list * int

(** Byte size when assembled at [base] (padding included). *)
val size : t -> base:int -> int
