(** Tagged page table (Sec. 4.1): a conventional page table extended with
    a per-page domain tag, a privileged-capability bit and a
    capability-storage bit. *)

type page = {
  mutable tag : int;
  mutable readable : bool;
  mutable writable : bool;
  mutable executable : bool;
  mutable priv_cap : bool;  (** may execute privileged instructions *)
  mutable cap_store : bool;  (** may hold capabilities (cap load/store only) *)
}

type t

val create : unit -> t

val find : t -> int -> page option

(** Like {!find} but raises {!Fault.Fault} with [Unmapped]. *)
val find_exn : t -> pc:int -> int -> page

val is_mapped : t -> int -> bool

(** Map [count] pages starting at the page containing [addr]; raises
    [Invalid_argument] on double mapping. *)
val map :
  t ->
  addr:int ->
  count:int ->
  tag:int ->
  ?readable:bool ->
  ?writable:bool ->
  ?executable:bool ->
  ?priv_cap:bool ->
  ?cap_store:bool ->
  unit ->
  unit

val unmap : t -> addr:int -> count:int -> unit

(** Reassign pages between domains (Table 2's dom_remap). *)
val retag : t -> addr:int -> count:int -> from_tag:int -> to_tag:int -> unit

val set_protection :
  t ->
  addr:int ->
  count:int ->
  ?readable:bool ->
  ?writable:bool ->
  ?executable:bool ->
  unit ->
  unit

(** Bumped whenever the page-number -> page mapping changes (map/unmap);
    translation caches key their entries on it.  In-place page mutation
    (retag, protection bits) does not bump it. *)
val generation : t -> int
