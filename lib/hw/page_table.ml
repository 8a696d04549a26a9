(* Tagged page table (Sec. 4.1).

   CODOMs extends a conventional page table with a per-page domain tag, a
   privileged-capability bit (code allowed to execute privileged
   instructions without a mode switch) and a capability-storage bit (pages
   that may hold capabilities, accessed only through capability load/store
   instructions). *)

type page = {
  mutable tag : int;
  mutable readable : bool;
  mutable writable : bool;
  mutable executable : bool;
  mutable priv_cap : bool; (* privileged capability bit (Sec. 4.1) *)
  mutable cap_store : bool; (* capability storage bit (Sec. 4.2) *)
}

(* [generation] is bumped whenever the page-number -> page mapping itself
   changes (map/unmap); [Machine]'s translation cache keys on it.
   In-place mutation of a [page] record (retag, set_protection) does
   not bump it: cached pointers to the record observe those writes. *)
module Tbl = Layout.Int_tbl

type t = { pages : page Tbl.t; mutable generation : int }

let create () = { pages = Tbl.create 1024; generation = 0 }

let generation t = t.generation

let find t addr = Tbl.find_opt t.pages (Layout.page_of addr)

let find_exn t ~pc addr =
  match Tbl.find t.pages (Layout.page_of addr) with
  | p -> p
  | exception Not_found -> Fault.raise_fault ~pc ~addr Fault.Unmapped

let is_mapped t addr = Tbl.mem t.pages (Layout.page_of addr)

(* Map [count] pages starting at the page containing [addr]. *)
let map t ~addr ~count ~tag ?(readable = true) ?(writable = true)
    ?(executable = false) ?(priv_cap = false) ?(cap_store = false) () =
  t.generation <- t.generation + 1;
  let first = Layout.page_of addr in
  for i = first to first + count - 1 do
    if Tbl.mem t.pages i then
      invalid_arg (Printf.sprintf "Page_table.map: page %d already mapped" i);
    Tbl.replace t.pages i
      { tag; readable; writable; executable; priv_cap; cap_store }
  done

let unmap t ~addr ~count =
  t.generation <- t.generation + 1;
  let first = Layout.page_of addr in
  for i = first to first + count - 1 do
    Tbl.remove t.pages i
  done

(* Reassign selected pages from one domain tag to another (dom_remap of
   Table 2).  Fails if any page is missing or not owned by [from_tag]. *)
let retag t ~addr ~count ~from_tag ~to_tag =
  let first = Layout.page_of addr in
  for i = first to first + count - 1 do
    match Tbl.find_opt t.pages i with
    | None -> invalid_arg "Page_table.retag: unmapped page"
    | Some p ->
        if p.tag <> from_tag then
          invalid_arg "Page_table.retag: page not in source domain"
  done;
  for i = first to first + count - 1 do
    (Tbl.find t.pages i).tag <- to_tag
  done

let set_protection t ~addr ~count ?readable ?writable ?executable () =
  let first = Layout.page_of addr in
  for i = first to first + count - 1 do
    match Tbl.find_opt t.pages i with
    | None -> invalid_arg "Page_table.set_protection: unmapped page"
    | Some p ->
        Option.iter (fun v -> p.readable <- v) readable;
        Option.iter (fun v -> p.writable <- v) writable;
        Option.iter (fun v -> p.executable <- v) executable
  done
