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
  (* Counters are keyed by (owner tag, program-chosen index).  When both
     are below 2^half_bits — every tag, and every index a program in the
     tree uses — the key is the one int [tag lsl half_bits lor counter],
     held in an open-addressing table of plain int arrays: a lookup
     builds nothing, calls nothing and goes through no write barrier.
     Anything else (the index comes from a program register, so it may
     be negative or huge) goes to a pair-keyed table; packing is
     one-to-one on the ints it takes, so the two tables never share a
     key.  Neither table is iterated, so no hash reaches an output. *)
  let half_bits = (Sys.int_size - 1) / 2

  module Wide = Hashtbl.Make (struct
    type t = int * int

    let equal ((a : int), (b : int)) (c, d) = a = c && b = d

    let hash (tag, counter) =
      (((tag * 0x278DDE6E5FD29F05) + counter) * 0x278DDE6E5FD29F05)
      lsr (Sys.int_size - 30)
  end)

  (* Linear probing over a power-of-two array at most half full; an
     empty cell holds -1, which no packed key is. *)
  type table = {
    mutable keys : int array;
    mutable counts : int array;
    mutable used : int;
    wide : int Wide.t;
  }

  let create () =
    {
      keys = Array.make 64 (-1);
      counts = Array.make 64 0;
      used = 0;
      wide = Wide.create 1;
    }

  (* Negative values set the sign bit, so one shift tests both. *)
  let[@inline] fits ~tag ~counter = (tag lor counter) lsr half_bits = 0

  (* The cell holding [key], or the empty cell where it would go. *)
  let[@inline] cell keys key =
    let mask = Array.length keys - 1 in
    let i = ref (((key * 0x278DDE6E5FD29F05) lsr (Sys.int_size - 30)) land mask) in
    while
      let k = Array.unsafe_get keys !i in
      k <> key && k >= 0
    do
      i := (!i + 1) land mask
    done;
    !i

  let value t ~tag ~counter =
    if fits ~tag ~counter then begin
      let key = (tag lsl half_bits) lor counter in
      let i = cell t.keys key in
      if Array.unsafe_get t.keys i = key then Array.unsafe_get t.counts i else 0
    end
    else
      match Wide.find t.wide (tag, counter) with
      | v -> v
      | exception Not_found -> 0

  let[@inline never] double t =
    let okeys = t.keys and ocounts = t.counts in
    let n = 2 * Array.length okeys in
    t.keys <- Array.make n (-1);
    t.counts <- Array.make n 0;
    Array.iteri
      (fun j key ->
        if key >= 0 then begin
          let i = cell t.keys key in
          t.keys.(i) <- key;
          t.counts.(i) <- ocounts.(j)
        end)
      okeys

  (* Immediate revocation: bump the counter; every capability stamped with
     the old value becomes invalid everywhere at once. *)
  let revoke t ~tag ~counter =
    if fits ~tag ~counter then begin
      if 2 * (t.used + 1) > Array.length t.keys then double t;
      let key = (tag lsl half_bits) lor counter in
      let i = cell t.keys key in
      if t.keys.(i) <> key then begin
        t.keys.(i) <- key;
        t.used <- t.used + 1
      end;
      t.counts.(i) <- t.counts.(i) + 1
    end
    else Wide.replace t.wide (tag, counter) (value t ~tag ~counter + 1)
end
