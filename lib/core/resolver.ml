(* Entry resolution (Sec. 6.2.1).

   The dIPC runtime's default hook exchanges entry point handles over
   UNIX named sockets: a server publishes its handle under a path, a
   client that knows the path receives the handle on first use.  File
   permissions control who may connect; custom hooks can replace this. *)

type mode = World_readable | Owner_only of int (* pid *)

type t = { sockets : (string, Entry.entry_handle * mode) Hashtbl.t }

let create () = { sockets = Hashtbl.create 16 }

let publish t ~path ?(mode = World_readable) handle =
  if Hashtbl.mem t.sockets path then
    System.deny "resolver: %s already published" path;
  Hashtbl.replace t.sockets path (handle, mode)

let lookup t ~path ~(caller : System.process) =
  match Hashtbl.find_opt t.sockets path with
  | None -> Error (Printf.sprintf "resolver: no socket at %s" path)
  | Some (handle, World_readable) -> Ok handle
  | Some (handle, Owner_only pid) ->
      if caller.System.pid = pid then Ok handle
      else Error (Printf.sprintf "resolver: permission denied on %s" path)
