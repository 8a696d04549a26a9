(** Address-space layout constants shared by the whole machine model. *)

val page_size : int

val word_size : int

(** Entry-point alignment for call-permission transfers (Sec. 4.1). *)
val entry_align : int

(** In-memory size of a capability (Sec. 4.2). *)
val cap_bytes : int

val page_of : int -> int

val align_up : int -> int -> int

val is_aligned : int -> int -> bool

(** Hash tables keyed by an address or a page number, with a
    multiplicative int hash: no lookup calls the polymorphic hash or
    compare. *)
module Int_tbl : Hashtbl.S with type key = int
