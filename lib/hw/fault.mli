(** Hardware fault model: every protection violation the machine detects
    raises {!Fault}; the OS layer above catches it to implement fault
    notification and KCS unwinding (Sec. 5.2.1). *)

type kind =
  | Unmapped
  | No_permission of Perm.t
  | Not_entry_point  (** call-permission transfer to a misaligned address *)
  | Exec_violation
  | Write_to_readonly
  | Privilege_required
  | Cap_invalid  (** revoked or out-of-scope capability *)
  | Cap_storage of string  (** capability-storage-bit discipline violated *)
  | Dcs_bounds of string
  | Bad_instruction
  | Software_trap of int

type t = { kind : kind; pc : int; addr : int option }

exception Fault of t

val raise_fault : ?addr:int -> pc:int -> kind -> 'a

val kind_to_string : kind -> string

(** Stable small code per fault class (payloads dropped), for digestable
    fault summaries.  Append-only numbering: it feeds adversarial golden
    pins. *)
val kind_code : kind -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** Security posture: what a protection unit does with an
    {e authorization} fault (one some authority could have granted).
    [Strict] faults immediately (the default — all pre-existing golden
    digests are pinned under it); [Audit] records the would-be fault and
    lets the operation proceed; [Permissive] proceeds silently.
    Structural faults (unmapped pages, bad instructions, broken
    capability encodings, DCS bounds, software traps) raise under every
    posture. *)
type posture = Strict | Audit | Permissive

val all_postures : posture list

val posture_to_string : posture -> string

(** The posture rule, written once: [`Deny] under [Strict] or for a
    structural kind; for an authorization kind, [`Audit] under [Audit]
    (count the would-be fault and proceed) and [`Proceed] under
    [Permissive]. *)
val verdict : posture -> kind -> [ `Deny | `Audit | `Proceed ]
