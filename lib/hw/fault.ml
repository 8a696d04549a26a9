(* Hardware fault model.

   Every protection violation the CODOMs machine can detect raises
   [Fault.Fault]; the kernel / dIPC layer above catches it to implement
   fault notification and KCS unwinding (Sec. 5.2.1). *)

type kind =
  | Unmapped (* access to an unmapped page *)
  | No_permission of Perm.t (* neither APL nor any capability grants it *)
  | Not_entry_point (* call-permission transfer to a misaligned address *)
  | Exec_violation (* fetch from a non-executable page *)
  | Write_to_readonly (* APL/cap would allow it but the page is read-only *)
  | Privilege_required (* privileged instruction from a non-priv page *)
  | Cap_invalid (* revoked or out-of-scope capability *)
  | Cap_storage of string (* cap-storage-bit discipline violated *)
  | Dcs_bounds of string (* DCS under/overflow or base violation *)
  | Bad_instruction (* fetch decoded no instruction *)
  | Software_trap of int (* explicit Trap instruction, e.g. stack check *)

type t = { kind : kind; pc : int; addr : int option }

exception Fault of t

let raise_fault ?addr ~pc kind = raise (Fault { kind; pc; addr })

let kind_to_string = function
  | Unmapped -> "unmapped page"
  | No_permission p -> "no " ^ Perm.to_string p ^ " permission"
  | Not_entry_point -> "misaligned cross-domain call target"
  | Exec_violation -> "execute violation"
  | Write_to_readonly -> "write to read-only page"
  | Privilege_required -> "privileged instruction in user code"
  | Cap_invalid -> "invalid/revoked capability"
  | Cap_storage s -> "capability storage violation: " ^ s
  | Dcs_bounds s -> "DCS bounds violation: " ^ s
  | Bad_instruction -> "bad instruction"
  | Software_trap n -> Printf.sprintf "software trap %d" n

let pp ppf t =
  Fmt.pf ppf "fault[%s] at pc=0x%x%a" (kind_to_string t.kind) t.pc
    (fun ppf -> function
      | None -> ()
      | Some a -> Fmt.pf ppf " addr=0x%x" a)
    t.addr

let to_string t = Fmt.str "%a" pp t

(* Stable small code per fault class, for digestable fault summaries
   (payloads are dropped; the directed suites assert exact kinds).  The
   numbering is part of the adversarial golden pins: append, never
   renumber (9 belonged to a retired APL-cache-miss kind). *)
let kind_code = function
  | Unmapped -> 0
  | No_permission _ -> 1
  | Not_entry_point -> 2
  | Exec_violation -> 3
  | Write_to_readonly -> 4
  | Privilege_required -> 5
  | Cap_invalid -> 6
  | Cap_storage _ -> 7
  | Dcs_bounds _ -> 8
  | Bad_instruction -> 10
  | Software_trap _ -> 11

(* --- security posture ---

   Baked-in enforcement posture, selecting what a protection unit does
   with an *authorization* fault — a denial some authority (an APL
   entry, a capability, the privilege bit) could have granted:

     Strict      fault immediately.  The architectural default; every
                 pre-existing golden digest is pinned under it.
     Audit       record the would-be fault (an audit counter, plus a
                 traced Fault event when tracing) and let the operation
                 proceed.
     Permissive  let the operation proceed silently.

   Structural faults — unmapped pages, undecodable instructions, broken
   capability encodings, DCS bounds, software traps — raise under every
   posture: there is no defined way to continue past them. *)

type posture = Strict | Audit | Permissive

let all_postures = [ Strict; Audit; Permissive ]

let posture_to_string = function
  | Strict -> "strict"
  | Audit -> "audit"
  | Permissive -> "permissive"

(* Which fault classes a non-strict posture may downgrade. *)
let downgradeable = function
  | No_permission _ | Not_entry_point | Exec_violation | Write_to_readonly
  | Privilege_required | Cap_storage _ ->
      true
  | Unmapped | Cap_invalid | Dcs_bounds _ | Bad_instruction | Software_trap _ ->
      false
