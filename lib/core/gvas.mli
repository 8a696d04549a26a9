(** Global virtual address space allocator (Sec. 6.1.3): dIPC-enabled
    processes share one page table, so virtual addresses are allocated
    globally in 1 GB blocks sub-allocated per process. *)

type t

val create : unit -> t

(** Page-aligned sub-allocation for [owner] (a pid), opening a new global
    block when needed. *)
val alloc : t -> owner:int -> bytes:int -> int

(** Which process owns the block containing [addr]?  (The direct lookup
    Sec. 7.4 suggests instead of iterating processes.) *)
val owner_of : t -> int -> int option

(** Global block allocations so far (the contended counter). *)
val blocks_allocated : t -> int
