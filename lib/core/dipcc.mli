(** dipcc: the textual front-end playing the paper's compiler-pass role
    (Secs. 3.3, 5.3.1, 6.2) — parses an image-description language and
    performs the corresponding loader actions.

    {v
    process database
      domain service
      func query @service
        add r0, r0, r1
        ret
      end
      entry db = query@service sig(args=2, rets=1) policy(reg-conf)
      publish db /run/db.sock

    process web
      import q /run/db.sock sig(args=2, rets=1) policy(reg-int)
    v} *)

exception Parse_error of int * string  (** (line, message) *)

type loaded

(** Parse and load [source] into the system; publishes entries on a
    fresh resolver of its own. *)
val load : System.t -> string -> loaded

(** The image built for a process declared in the source. *)
val image : loaded -> proc:string -> Annot.image

(** An imported symbol of a process declared in the source. *)
val symbol : loaded -> proc:string -> name:string -> Annot.symbol

(** Call an imported symbol on a thread of its process. *)
val call :
  System.t ->
  loaded ->
  System.thread ->
  proc:string ->
  name:string ->
  args:int list ->
  (int, Dipc_hw.Fault.t) result
