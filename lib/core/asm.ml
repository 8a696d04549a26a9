(* Tiny two-pass assembler for generating proxies and stubs.

   Proxy templates need forward branches (to the trap exit) and alignment
   directives (entry points must sit on 64-byte boundaries, Sec. 4.1), so
   code is built as a list of items with symbolic labels and resolved in a
   second pass once the base address is known. *)

module Isa = Dipc_hw.Isa
module Layout = Dipc_hw.Layout

type label = { mutable resolved : int option; lname : string }

let label name = { resolved = None; lname = name }

type item =
  | Ins of Isa.instr
  | Branch of (int -> Isa.instr) * label (* instruction taking the target *)
  | Bind of label (* define the label here *)
  | Align of int (* pad with Nop to the given alignment *)

type t = { mutable items : item list (* reversed *) }

let create () = { items = [] }

let ins a i = a.items <- Ins i :: a.items

let branch a f l = a.items <- Branch (f, l) :: a.items

let bind a l = a.items <- Bind l :: a.items

let align a n = a.items <- Align n :: a.items

(* Number of instruction slots an item list occupies from [addr]. *)
let rec layout addr = function
  | [] -> addr
  | Ins _ :: rest | Branch _ :: rest -> layout (addr + Isa.instr_bytes) rest
  | Bind l :: rest ->
      l.resolved <- Some addr;
      layout addr rest
  | Align n :: rest -> layout (Layout.align_up addr n) rest

let target l =
  match l.resolved with
  | Some addr -> addr
  | None -> invalid_arg ("Asm: unbound label " ^ l.lname)

(* Assemble at [base]; returns the (address, instruction) pairs and the
   first address past the code. *)
let assemble a ~base =
  let items = List.rev a.items in
  let last = layout base items in
  let out = ref [] in
  let addr = ref base in
  List.iter
    (fun item ->
      match item with
      | Ins i ->
          out := (!addr, i) :: !out;
          addr := !addr + Isa.instr_bytes
      | Branch (f, l) ->
          out := (!addr, f (target l)) :: !out;
          addr := !addr + Isa.instr_bytes
      | Bind _ -> ()
      | Align n ->
          let aligned = Layout.align_up !addr n in
          while !addr < aligned do
            out := (!addr, Isa.Nop) :: !out;
            addr := !addr + Isa.instr_bytes
          done)
    items;
  (List.rev !out, last)

(* Instruction count (padding included) when assembled at [base]. *)
let size a ~base =
  let code, last = assemble a ~base in
  ignore code;
  last - base
