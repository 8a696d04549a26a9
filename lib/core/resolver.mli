(** Entry resolution (Sec. 6.2.1): the runtime's default hook exchanges
    entry point handles over named sockets, with file-permission-style
    access control. *)

type mode = World_readable | Owner_only of int  (** pid *)

type t

val create : unit -> t

(** Publish an entry handle under [path]; denies duplicates. *)
val publish : t -> path:string -> ?mode:mode -> Entry.entry_handle -> unit

(** Fetch the handle at [path], subject to its access mode. *)
val lookup :
  t -> path:string -> caller:System.process -> (Entry.entry_handle, string) result
