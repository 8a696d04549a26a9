(* Transient data-sharing capabilities (Sec. 4.2).

   Capabilities grant access to an address range with a permission.  They
   are created and destroyed by user code through hardware instructions,
   cannot be forged, and come in two flavours (Sec. 4.1.5 of the CODOMs
   paper, summarised in Sec. 4.2 here):

   - Synchronous: tied to the creating thread's current call frame; they
     die automatically when that frame returns, so they are safe to pass
     down a synchronous call chain (this is what isolates per-thread data
     stacks in dIPC).

   - Asynchronous: may be passed across threads and stored in memory, and
     support immediate revocation through revocation counters — the
     capability embeds (counter index, value at creation) and is valid only
     while the counter still holds that value. *)

type scope =
  | Synchronous of { thread : int; depth : int; epoch : int }
  | Asynchronous of { owner_tag : int; counter : int; value : int }

type t = { base : int; length : int; perm : Perm.t; scope : scope }

let covers cap ~addr ~len =
  addr >= cap.base && addr + len <= cap.base + cap.length

let grants cap needed = Perm.includes cap.perm needed

(* Derivation never amplifies rights (Sec. 4.2: "a new capability is always
   derived from the current domain's APL or from an existing capability"). *)
let restrict cap ~base ~length ~perm =
  if base < cap.base || base + length > cap.base + cap.length then
    Error "restrict: range exceeds parent capability"
  else if not (Perm.includes cap.perm perm) then
    Error "restrict: permission exceeds parent capability"
  else Ok { cap with base; length; perm }

let pp ppf c =
  let scope =
    match c.scope with
    | Synchronous { thread; depth; epoch } ->
        Printf.sprintf "sync(t%d d%d e%d)" thread depth epoch
    | Asynchronous { owner_tag; counter; value } ->
        Printf.sprintf "async(tag%d ctr%d=%d)" owner_tag counter value
  in
  Fmt.pf ppf "cap[0x%x+0x%x %a %s]" c.base c.length Perm.pp c.perm scope

(* --- revocation counters for asynchronous capabilities --- *)

module Revocation = struct
  (* Counters are keyed by (owner tag, program-chosen index), hashed and
     compared as ints: no lookup calls the polymorphic hash or compare.
     The table is never iterated, so the hash reaches no output. *)
  module Tbl = Hashtbl.Make (struct
    type t = int * int

    let equal ((a : int), (b : int)) (c, d) = a = c && b = d

    let hash (tag, counter) =
      (((tag * 0x278DDE6E5FD29F05) + counter) * 0x278DDE6E5FD29F05)
      lsr (Sys.int_size - 30)
  end)

  type table = { counters : int Tbl.t }

  let create () = { counters = Tbl.create 64 }

  let value t ~tag ~counter =
    match Tbl.find t.counters (tag, counter) with
    | v -> v
    | exception Not_found -> 0

  (* Immediate revocation: bump the counter; every capability stamped with
     the old value becomes invalid everywhere at once. *)
  let revoke t ~tag ~counter =
    Tbl.replace t.counters (tag, counter) (value t ~tag ~counter + 1)
end
