(* dipcc: a textual front-end playing the role of the paper's compiler
   pass (Secs. 3.3, 5.3.1, 6.2).

   The paper's CLang pass reads source annotations (dom, entry, perm,
   iso_caller/iso_callee) and emits binary sections that drive the
   loader.  This module is that tool-chain for the simulated machine: it
   parses a small image-description language and performs the same loader
   actions through the Annot/Resolver APIs.

   Example:

     process database
       domain service
       func query @service
         add r0, r0, r1
         ret
       end
       entry db = query sig(args=2, rets=1) policy(reg-conf)
       publish db /run/db.sock

     process web
       import q /run/db.sock sig(args=2, rets=1) policy(reg-int)

   Instructions: const/mov/add/addi/sub/mul/shli/load/store/ret/nop/
   trap/jmp/beqz/bnez/call, with local labels ("loop:").  `call` may
   name an earlier function or import of the same process. *)

module Isa = Dipc_hw.Isa

exception Parse_error of int * string (* line, message *)

let fail line fmt = Fmt.kstr (fun s -> raise (Parse_error (line, s))) fmt

(* --- lexing helpers --- *)

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char ',')
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_reg ln s =
  if s = "sp" then Isa.sp
  else if String.length s >= 2 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some r when r >= 0 && r < Isa.num_regs -> r
    | Some _ | None -> fail ln "bad register %S" s
  else fail ln "bad register %S" s

let parse_int ln s =
  match int_of_string_opt s with Some v -> v | None -> fail ln "bad integer %S" s

(* [rB+off] or [rB-off] or [rB] *)
let parse_mem ln s =
  let n = String.length s in
  if n < 3 || s.[0] <> '[' || s.[n - 1] <> ']' then fail ln "bad memory operand %S" s
  else begin
    let inner = String.sub s 1 (n - 2) in
    match String.index_opt inner '+' with
    | Some i ->
        ( parse_reg ln (String.sub inner 0 i),
          parse_int ln (String.sub inner (i + 1) (String.length inner - i - 1)) )
    | None -> (
        match String.index_opt inner '-' with
        | Some i when i > 0 ->
            ( parse_reg ln (String.sub inner 0 i),
              -parse_int ln (String.sub inner (i + 1) (String.length inner - i - 1)) )
        | _ -> (parse_reg ln inner, 0))
  end

(* --- key=value option lists: sig(args=2, rets=1) policy(reg-int) --- *)

(* Find "name(...)" in [s] and return the inside. *)
let scan_group s name =
  let pat = name ^ "(" in
  let ls = String.length s and lp = String.length pat in
  let rec scan i =
    if i + lp > ls then None
    else if String.sub s i lp = pat then begin
      match String.index_from_opt s (i + lp) ')' with
      | Some close -> Some (String.sub s (i + lp) (close - i - lp))
      | None -> None
    end
    else scan (i + 1)
  in
  scan 0

let find_group_opt tail name = scan_group (String.concat " " tail) name

let find_group ln tail name =
  match find_group_opt tail name with
  | Some inner -> tokens inner
  | None -> fail ln "missing %s(...)" name

let parse_signature ln tail =
  let fields = find_group ln tail "sig" in
  let get key =
    List.find_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i when String.sub tok 0 i = key ->
            Some (parse_int ln (String.sub tok (i + 1) (String.length tok - i - 1)))
        | _ -> None)
      fields
  in
  Types.signature
    ?args:(get "args") ?rets:(get "rets") ?stack_bytes:(get "stack")
    ?cap_args:(get "cap-args") ?cap_rets:(get "cap-rets") ()

let parse_policy ln tail =
  match find_group_opt tail "policy" with
  | None -> Types.props_none
  | Some inner ->
      List.fold_left
        (fun acc tok ->
          match tok with
          | "none" -> acc
          | "high" -> Types.props_high
          | "reg-int" -> { acc with Types.reg_integrity = true }
          | "reg-conf" -> { acc with Types.reg_confidentiality = true }
          | "stack-int" -> { acc with Types.stack_integrity = true }
          | "stack-conf" -> { acc with Types.stack_confidentiality = true }
          | "dcs-int" -> { acc with Types.dcs_integrity = true }
          | "dcs-conf" -> { acc with Types.dcs_confidentiality = true }
          | other -> fail ln "unknown policy flag %S" other)
        Types.props_none (tokens inner)

(* --- instruction assembly --- *)

type fn_env = { resolve_name : int -> string -> int (* line -> name -> addr *) }

let assemble_instr env ln labels toks a =
  let label name =
    match Hashtbl.find_opt labels name with
    | Some l -> l
    | None ->
        let l = Asm.label name in
        Hashtbl.replace labels name l;
        l
  in
  match toks with
  | [ "nop" ] -> Asm.ins a Isa.Nop
  | [ "halt" ] -> Asm.ins a Isa.Halt
  | [ "ret" ] -> Asm.ins a Isa.Ret
  | [ "trap"; n ] -> Asm.ins a (Isa.Trap (parse_int ln n))
  | [ "const"; d; v ] -> Asm.ins a (Isa.Const (parse_reg ln d, parse_int ln v))
  | [ "mov"; d; s ] -> Asm.ins a (Isa.Mov (parse_reg ln d, parse_reg ln s))
  | [ "add"; d; x; y ] ->
      Asm.ins a (Isa.Add (parse_reg ln d, parse_reg ln x, parse_reg ln y))
  | [ "sub"; d; x; y ] ->
      Asm.ins a (Isa.Sub (parse_reg ln d, parse_reg ln x, parse_reg ln y))
  | [ "mul"; d; x; y ] ->
      Asm.ins a (Isa.Mul (parse_reg ln d, parse_reg ln x, parse_reg ln y))
  | [ "addi"; d; x; i ] ->
      Asm.ins a (Isa.Addi (parse_reg ln d, parse_reg ln x, parse_int ln i))
  | [ "shli"; d; x; i ] ->
      Asm.ins a (Isa.Shli (parse_reg ln d, parse_reg ln x, parse_int ln i))
  | [ "load"; d; mem ] ->
      let base, off = parse_mem ln mem in
      Asm.ins a (Isa.Load (parse_reg ln d, base, off))
  | [ "store"; mem; s ] ->
      let base, off = parse_mem ln mem in
      Asm.ins a (Isa.Store (base, off, parse_reg ln s))
  | [ "jmp"; target ] -> Asm.branch a (fun t -> Isa.Jmp t) (label target)
  | [ "beqz"; r; target ] ->
      let r = parse_reg ln r in
      Asm.branch a (fun t -> Isa.Beqz (r, t)) (label target)
  | [ "bnez"; r; target ] ->
      let r = parse_reg ln r in
      Asm.branch a (fun t -> Isa.Bnez (r, t)) (label target)
  | [ "blt"; x; y; target ] ->
      let x = parse_reg ln x and y = parse_reg ln y in
      Asm.branch a (fun t -> Isa.Blt (x, y, t)) (label target)
  | [ "call"; name ] -> Asm.ins a (Isa.Call (env.resolve_name ln name))
  | [] -> ()
  | op :: _ -> fail ln "unknown instruction %S" op

(* --- the image description language --- *)

type loaded = {
  l_images : (string, Annot.image) Hashtbl.t; (* process name -> image *)
  l_symbols : (string * string, Annot.symbol) Hashtbl.t; (* (proc, sym) *)
  l_resolver : Resolver.t;
}

let image loaded ~proc =
  match Hashtbl.find_opt loaded.l_images proc with
  | Some img -> img
  | None -> System.deny "dipcc: unknown process %s" proc

let symbol loaded ~proc ~name =
  match Hashtbl.find_opt loaded.l_symbols (proc, name) with
  | Some s -> s
  | None -> System.deny "dipcc: unknown symbol %s.%s" proc name

(* Call an imported symbol on a thread of its process. *)
let call t loaded th ~proc ~name ~args =
  Annot.call t loaded.l_resolver th (symbol loaded ~proc ~name) ~args

let load t source =
  let resolver = Resolver.create () in
  let loaded =
    { l_images = Hashtbl.create 8; l_symbols = Hashtbl.create 16; l_resolver = resolver }
  in
  let lines = String.split_on_char '\n' source in
  let current_img = ref None in
  let current_name = ref "" in
  (* function body under construction: (name, domain, asm, labels) *)
  let current_fn : (string * string * Asm.t * (string, Asm.label) Hashtbl.t) option ref =
    ref None
  in
  let require_img ln =
    match !current_img with
    | Some img -> img
    | None -> fail ln "directive outside a process block"
  in
  let resolve_callable ln name =
    let img = require_img ln in
    match Hashtbl.find_opt img.Annot.img_functions name with
    | Some addr -> addr
    | None -> (
        match Hashtbl.find_opt loaded.l_symbols (!current_name, name) with
        | Some sym -> Annot.resolve t resolver sym
        | None -> fail ln "unknown callee %S (declare it first)" name)
  in
  let env = { resolve_name = resolve_callable } in
  let fn_entry = ref None in
  let finish_fn ln =
    match (!current_fn, !fn_entry) with
    | Some (name, dom, a, _), Some entry ->
        let img = require_img ln in
        let d = Annot.domain_handle img dom in
        let addr = Loader.place_program t ~dom:d (a, entry) in
        Hashtbl.replace img.Annot.img_functions name addr;
        current_fn := None;
        fn_entry := None
    | Some _, None -> fail ln "internal: function without entry label"
    | None, _ -> ()
  in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      let line = String.trim (strip_comment raw) in
      if line = "" then ()
      else begin
        match !current_fn with
        | Some (_, _, a, labels) when line <> "end" ->
            (* Inside a function body: label definitions or instructions. *)
            let n = String.length line in
            if n > 1 && line.[n - 1] = ':' then begin
              let name = String.sub line 0 (n - 1) in
              let l =
                match Hashtbl.find_opt labels name with
                | Some l -> l
                | None ->
                    let l = Asm.label name in
                    Hashtbl.replace labels name l;
                    l
              in
              Asm.bind a l
            end
            else assemble_instr env ln labels (tokens line) a
        | Some _ (* line = "end" *) -> finish_fn ln
        | None -> (
            match tokens line with
            | [ "process"; name ] ->
                let proc = System.create_process t ~name in
                let img = Annot.image t proc in
                Hashtbl.replace loaded.l_images name img;
                current_img := Some img;
                current_name := name
            | [ "domain"; name ] -> ignore (Annot.declare_domain t (require_img ln) name)
            | "func" :: name :: rest ->
                let dom =
                  match rest with
                  | [] -> "default"
                  | [ d ] when String.length d > 1 && d.[0] = '@' ->
                      String.sub d 1 (String.length d - 1)
                  | _ -> fail ln "func syntax: func <name> [@domain]"
                in
                let a = Asm.create () in
                let entry = Asm.label (name ^ "__entry") in
                Asm.align a Dipc_hw.Layout.entry_align;
                Asm.bind a entry;
                fn_entry := Some entry;
                current_fn := Some (name, dom, a, Hashtbl.create 8)
            | "perm" :: src :: dst :: [ perm ] ->
                let p =
                  match perm with
                  | "read" -> Dipc_hw.Perm.Read
                  | "write" -> Dipc_hw.Perm.Write
                  | "call" -> Dipc_hw.Perm.Call
                  | other -> fail ln "unknown permission %S" other
                in
                Annot.declare_perm t (require_img ln) ~src ~dst p
            | "entry" :: name :: "=" :: fn :: tail ->
                let img = require_img ln in
                let dom =
                  (* The entry lives in the domain of its function; find it
                     via an optional @domain suffix on the function name. *)
                  match String.index_opt fn '@' with
                  | Some j -> String.sub fn (j + 1) (String.length fn - j - 1)
                  | None -> "default"
                in
                let fn_name =
                  match String.index_opt fn '@' with
                  | Some j -> String.sub fn 0 j
                  | None -> fn
                in
                let sig_ = parse_signature ln tail in
                let policy = parse_policy ln tail in
                ignore
                  (Annot.declare_entries t img ~name ~dom [ (fn_name, sig_, policy) ])
            | "publish" :: entry :: [ path ] ->
                let img = require_img ln in
                Resolver.publish resolver ~path (Annot.entry_handle img entry)
            | "import" :: name :: path :: tail ->
                let img = require_img ln in
                let sig_ = parse_signature ln tail in
                let props = parse_policy ln tail in
                let sym = Annot.import img ~path ~sig_ ~props () in
                Hashtbl.replace loaded.l_symbols (!current_name, name) sym
            | toks -> fail ln "unknown directive %S" (String.concat " " toks))
      end)
    lines;
  (match !current_fn with
  | Some (name, _, _, _) ->
      fail (List.length lines) "function %S not closed with 'end'" name
  | None -> ());
  loaded
