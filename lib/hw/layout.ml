(* Address-space layout constants shared by the whole machine model. *)

let page_size = 4096

let page_shift = 12

let word_size = 8

(* "Any code address used with [Call] permission is an entry point if it is
   aligned to a system-configurable value" (Sec. 4.1). *)
let entry_align = 64

(* Capabilities occupy 32 B in memory (Sec. 4.2). *)
let cap_bytes = 32

let page_of addr = addr lsr page_shift

let page_base addr = addr land lnot (page_size - 1)

let offset_in_page addr = addr land (page_size - 1)

let align_up addr align = (addr + align - 1) land lnot (align - 1)

let is_aligned addr align = addr land (align - 1) = 0

(* Hash tables keyed by an address or a page number: the memory stores,
   the page table and the superblock cache.  A lookup calls neither the
   polymorphic [caml_hash] nor [compare_val].  The hash is
   multiplicative (K = 2^62 / golden ratio, odd, as in the machine's
   translation cache) and keeps the product's high bits: regions sit at
   round power-of-two addresses, and [Hashtbl] buckets on the hash's low
   bits, so the identity would pile same-offset pages of different
   regions into one bucket.  Nothing iterates these tables, so the hash
   reaches no output and is free to differ from [Hashtbl.hash]. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = (x * 0x278DDE6E5FD29F05) lsr (Sys.int_size - 30)
end)
