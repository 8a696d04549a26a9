(* Simulated physical memory.

   Three stores share one address space:
   - [words]: 8-byte data words at 8-aligned addresses (sparse);
   - [caps]: 32-byte capability cells at 32-aligned addresses, kept apart
     from data so capabilities cannot be forged by writing their bits —
     the page's capability-storage bit mediates which accessor is legal;
   - [code]: one instruction per 4-byte slot.

   Representation: page-granular chunked arrays.  Each store maps a page
   number ([Layout.Int_tbl], int-hashed) to a flat array covering that
   page, allocated on first store;
   within a page an access is a direct array index.  A one-entry
   last-page cache per store keeps straight-line execution (fetch at
   consecutive pcs, loads/stores into the same buffer) off the page
   table entirely, and a matching one-entry absent-page cache keeps
   repeated reads from an untouched page off the table too (allocating
   nothing: the store's neutral element 0 / None is returned directly).
   The absent-page entry is dropped as soon as a chunk is allocated for
   any page of that store, so a first store to the page is immediately
   visible to subsequent loads.

   [code_gen] counts [place_code] calls: it versions the code store so
   the machine's translated-block cache can tell whether any code it
   decoded earlier might have been overwritten (self-modifying code,
   loaders reusing addresses).

   All protection checks happen in [Machine]; this module is the raw
   backing store. *)

module Tbl = Layout.Int_tbl

let page_mask = Layout.page_size - 1

let words_per_page = Layout.page_size / Layout.word_size

let caps_per_page = Layout.page_size / Layout.cap_bytes

let instrs_per_page = Layout.page_size / Isa.instr_bytes

type t = {
  words : int array Tbl.t;
  caps : Capability.t option array Tbl.t;
  code : Isa.instr option array Tbl.t;
  mutable last_wpage : int;
  mutable last_wchunk : int array;
  mutable last_cpage : int;
  mutable last_cchunk : Capability.t option array;
  mutable last_ipage : int;
  mutable last_ichunk : Isa.instr option array;
  (* One-entry absent-page caches: page numbers known to have no chunk
     in the corresponding store (-1 = none cached). *)
  mutable miss_wpage : int;
  mutable miss_cpage : int;
  mutable miss_ipage : int;
  mutable code_count : int; (* placed instruction slots *)
  mutable code_gen : int; (* bumped by every [place_code] *)
}

(* [Layout.page_of] is a logical shift, so page numbers are never
   negative: -1 is a safe "no page cached" sentinel. *)
let create () =
  {
    words = Tbl.create 64;
    caps = Tbl.create 16;
    code = Tbl.create 16;
    last_wpage = -1;
    last_wchunk = [||];
    last_cpage = -1;
    last_cchunk = [||];
    last_ipage = -1;
    last_ichunk = [||];
    miss_wpage = -1;
    miss_cpage = -1;
    miss_ipage = -1;
    code_count = 0;
    code_gen = 0;
  }

let[@inline never] unaligned_word addr =
  invalid_arg (Printf.sprintf "unaligned word access 0x%x" addr)

let[@inline] check_word_aligned addr = if addr land 7 <> 0 then unaligned_word addr

let word_chunk t page =
  match Tbl.find t.words page with
  | c ->
      t.last_wpage <- page;
      t.last_wchunk <- c;
      c
  | exception Not_found ->
      let c = Array.make words_per_page 0 in
      Tbl.add t.words page c;
      t.last_wpage <- page;
      t.last_wchunk <- c;
      t.miss_wpage <- -1;
      c

let load_word t addr =
  check_word_aligned addr;
  let page = Layout.page_of addr in
  if page = t.last_wpage then t.last_wchunk.((addr land page_mask) lsr 3)
  else if page = t.miss_wpage then 0
  else
    match Tbl.find t.words page with
    | c ->
        t.last_wpage <- page;
        t.last_wchunk <- c;
        c.((addr land page_mask) lsr 3)
    | exception Not_found ->
        t.miss_wpage <- page;
        0

let store_word t addr v =
  check_word_aligned addr;
  let page = Layout.page_of addr in
  let c = if page = t.last_wpage then t.last_wchunk else word_chunk t page in
  c.((addr land page_mask) lsr 3) <- v

let check_cap_aligned addr =
  if addr land (Layout.cap_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "unaligned capability access 0x%x" addr)

let cap_chunk t page =
  match Tbl.find t.caps page with
  | c ->
      t.last_cpage <- page;
      t.last_cchunk <- c;
      c
  | exception Not_found ->
      let c = Array.make caps_per_page None in
      Tbl.add t.caps page c;
      t.last_cpage <- page;
      t.last_cchunk <- c;
      t.miss_cpage <- -1;
      c

let load_cap t addr =
  check_cap_aligned addr;
  let page = Layout.page_of addr in
  if page = t.last_cpage then t.last_cchunk.((addr land page_mask) lsr 5)
  else if page = t.miss_cpage then None
  else
    match Tbl.find t.caps page with
    | c ->
        t.last_cpage <- page;
        t.last_cchunk <- c;
        c.((addr land page_mask) lsr 5)
    | exception Not_found ->
        t.miss_cpage <- page;
        None

let store_cap t addr cap =
  check_cap_aligned addr;
  let page = Layout.page_of addr in
  let c = if page = t.last_cpage then t.last_cchunk else cap_chunk t page in
  c.((addr land page_mask) lsr 5) <- Some cap

(* Misaligned fetch addresses never hold an instruction (code is placed
   at 4-aligned slots only), matching the old per-address table. *)
let fetch t addr =
  if addr land (Isa.instr_bytes - 1) <> 0 then None
  else begin
    let page = Layout.page_of addr in
    if page = t.last_ipage then t.last_ichunk.((addr land page_mask) lsr 2)
    else if page = t.miss_ipage then None
    else
      match Tbl.find t.code page with
      | c ->
          t.last_ipage <- page;
          t.last_ichunk <- c;
          c.((addr land page_mask) lsr 2)
      | exception Not_found ->
          t.miss_ipage <- page;
          None
  end

let code_chunk t page =
  match Tbl.find t.code page with
  | c ->
      t.last_ipage <- page;
      t.last_ichunk <- c;
      c
  | exception Not_found ->
      let c = Array.make instrs_per_page None in
      Tbl.add t.code page c;
      t.last_ipage <- page;
      t.last_ichunk <- c;
      t.miss_ipage <- -1;
      c

(* Place a straight-line instruction sequence at [addr]; returns the first
   address past it. *)
let place_code t ~addr instrs =
  if addr land (Isa.instr_bytes - 1) <> 0 then
    invalid_arg "place_code: misaligned code address";
  t.code_gen <- t.code_gen + 1;
  List.iteri
    (fun i instr ->
      let a = addr + (i * Isa.instr_bytes) in
      let c = code_chunk t (Layout.page_of a) in
      let slot = (a land page_mask) lsr 2 in
      if c.(slot) = None then t.code_count <- t.code_count + 1;
      c.(slot) <- Some instr)
    instrs;
  addr + (List.length instrs * Isa.instr_bytes)

let code_size t = t.code_count

let code_generation t = t.code_gen
