(* Memory traffic cost model.

   Copy and touch costs depend on whether the working set fits in L1, L2 or
   spills to memory; this produces the kinks Figure 6 marks at "L1$ size"
   and "L2$ size".  All results in nanoseconds. *)

(* Streaming rate for a working set of [bytes]. *)
let ns_per_byte bytes =
  if bytes <= Costs.l1_size then Costs.copy_ns_per_byte_l1
  else if bytes <= Costs.l2_size then Costs.copy_ns_per_byte_l2
  else Costs.copy_ns_per_byte_mem

(* Cost for user code to stream-write [bytes] (producer filling a buffer). *)
let write_buffer bytes = float_of_int bytes *. ns_per_byte bytes

(* Cost for user code to stream-read [bytes] (consumer checksumming). *)
let read_buffer bytes = float_of_int bytes *. ns_per_byte bytes

(* A user-to-user copy through user code (memcpy): read + write traffic,
   modelled as a single streaming pass at the level of the total footprint
   (source + destination compete for the same cache). *)
let user_copy bytes =
  let footprint = 2 * bytes in
  float_of_int bytes *. ns_per_byte footprint *. 2.0

(* A kernel-mediated cross-process copy: same traffic as a user copy plus
   per-page validation that the pages are mapped (pin/check). *)
let kernel_copy bytes =
  let pages = (bytes + 4095) / 4096 in
  user_copy bytes +. (float_of_int (max 1 pages) *. Costs.kernel_copy_page_check)
