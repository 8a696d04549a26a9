(* Per-thread Domain Capability Stack (Sec. 4.2).

   All capabilities can be spilled to the DCS, which is bounded by two
   registers modifiable only by privileged code; unprivileged code moves
   capabilities with push/pop.  dIPC's proxies implement:

   - DCS integrity: raise the base so the callee cannot pop the caller's
     non-argument entries, restore it on return (Sec. 5.2.3).
   - DCS confidentiality (+integrity): switch to a separate stack per
     domain, copying argument entries per the signature.

   A confidentiality crossing makes no allocation once warm: [restore]
   clears the callee stack it detaches and keeps it as [spare], which the
   next [switch] installs instead of a fresh array.  Only [0, top) needs
   clearing — [pop] nulls every slot it vacates, so the entries at or
   above [top] are already [None] — and after it the spare holds nothing
   of the previous callee's. *)

let default_capacity = 256

type t = {
  mutable slots : Capability.t option array;
  mutable base : int; (* lowest index unprivileged code may pop past *)
  mutable top : int; (* next free slot *)
  mutable spare : Capability.t option array; (* all [None]; [||] if none *)
}

let create ?(capacity = default_capacity) () =
  { slots = Array.make capacity None; base = 0; top = 0; spare = [||] }

let depth t = t.top

let base t = t.base

let push t ~pc cap =
  if t.top >= Array.length t.slots then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "overflow");
  t.slots.(t.top) <- Some cap;
  t.top <- t.top + 1

let pop t ~pc =
  if t.top <= t.base then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "pop below base");
  t.top <- t.top - 1;
  match t.slots.(t.top) with
  | Some cap ->
      t.slots.(t.top) <- None;
      cap
  | None -> Fault.raise_fault ~pc (Fault.Dcs_bounds "empty slot")

(* Privileged: used by proxies for DCS integrity. *)
let set_base t ~pc idx =
  if idx < 0 || idx > t.top then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "base out of range");
  t.base <- idx

(* Privileged: detach the current stack and install an empty one with
   the top [args] entries copied over (DCS confidentiality + integrity).
   Returns the detached state for the matching restore. *)
type saved = {
  saved_slots : Capability.t option array;
  saved_base : int;
  saved_top : int;
  owner : t; (* the DCS this switch detached from *)
}

let switch t ~pc ~args =
  if args > t.top - t.base then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "more arguments than entries");
  let fresh =
    if Array.length t.spare = Array.length t.slots then t.spare
    else Array.make (Array.length t.slots) None
  in
  t.spare <- [||];
  let saved =
    { saved_slots = t.slots; saved_base = t.base; saved_top = t.top; owner = t }
  in
  for i = 0 to args - 1 do
    fresh.(i) <- t.slots.(t.top - args + i)
  done;
  t.slots <- fresh;
  t.base <- 0;
  t.top <- args;
  saved

(* Privileged: restore a detached stack, copying the top [rets] entries of
   the callee stack back as results.  The callee stack is then cleared
   and kept for the next [switch] — unless [saved] came from another
   DCS: a context cloned mid-call shares its parent's [saved] records,
   and the stacks they restore stay the parent's. *)
let restore t ~pc ~rets saved =
  if rets > t.top then Fault.raise_fault ~pc (Fault.Dcs_bounds "more results than entries");
  if rets < 0 then invalid_arg "Dcs.restore: negative result count";
  let callee = t.slots and callee_top = t.top in
  t.slots <- saved.saved_slots;
  t.base <- saved.saved_base;
  t.top <- saved.saved_top;
  for i = callee_top - rets to callee_top - 1 do
    match callee.(i) with
    | Some _ as cap ->
        if t.top >= Array.length t.slots then
          Fault.raise_fault ~pc (Fault.Dcs_bounds "overflow on restore");
        t.slots.(t.top) <- cap;
        t.top <- t.top + 1
    | None -> ()
  done;
  if saved.owner == t then begin
    Array.fill callee 0 callee_top None;
    t.spare <- callee
  end
