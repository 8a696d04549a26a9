(* Access Protection Lists (Sec. 4.1).

   Every domain tag T is associated with an APL: the list of tags code in T
   may access, with a permission each.  A domain always has implicit write
   access to its own tag ("domain B has implicit read-write access to
   itself").

   Tags are dense small ints handed out by [fresh_tag], so the APLs are
   stored as rows: [rows.(src).(dst)] is the grant of [src] on [dst],
   [Nil] past the end of a row.  A lookup — which the machine makes on
   every data access, transfer and capability derivation — is two bounds
   checks and an array read, with no hashing or allocation.  Rows are
   sized from [next_tag] when they grow, so a burst of set-up grants
   reallocates each row only O(log tags) times. *)

type t = {
  mutable rows : Perm.t array array; (* src -> dst -> hardware permission *)
  mutable next_tag : int;
  mutable generation : int; (* bumped on every change, invalidates caches *)
}

let create () = { rows = [||]; next_tag = 1; generation = 0 }

let fresh_tag t =
  let tag = t.next_tag in
  t.next_tag <- t.next_tag + 1;
  tag

let[@inline] permission t ~src ~dst =
  if src = dst then Perm.Write
  else if src < 0 || src >= Array.length t.rows then Perm.Nil
  else
    let row = Array.unsafe_get t.rows src in
    if dst < 0 || dst >= Array.length row then Perm.Nil
    else Array.unsafe_get row dst

(* Room for index [i] in an array of length [len]: at least [next_tag]
   and at least double the old length, so growth is geometric. *)
let grown_length t ~len i = max (i + 1) (max t.next_tag (2 * len))

let row_for t src =
  if src >= Array.length t.rows then begin
    let rows = Array.make (grown_length t ~len:(Array.length t.rows) src) [||] in
    Array.blit t.rows 0 rows 0 (Array.length t.rows);
    t.rows <- rows
  end;
  t.rows.(src)

let grant t ~src ~dst perm =
  if src = dst then invalid_arg "Apl.grant: a domain's self access is implicit";
  if src < 0 || dst < 0 then invalid_arg "Apl.grant: negative domain tag";
  t.generation <- t.generation + 1;
  let hw = Perm.to_hardware perm in
  let row = row_for t src in
  if dst < Array.length row then row.(dst) <- hw
  else if not (Perm.equal hw Perm.Nil) then begin
    let grown = Array.make (grown_length t ~len:(Array.length row) dst) Perm.Nil in
    Array.blit row 0 grown 0 (Array.length row);
    grown.(dst) <- hw;
    t.rows.(src) <- grown
  end

let revoke t ~src ~dst =
  t.generation <- t.generation + 1;
  if src >= 0 && src < Array.length t.rows then begin
    let row = t.rows.(src) in
    if dst >= 0 && dst < Array.length row then row.(dst) <- Perm.Nil
  end

(* Drop a domain entirely: its own APL and every grant pointing at it. *)
let drop_tag t tag =
  t.generation <- t.generation + 1;
  Array.iteri
    (fun src row ->
      if src = tag then t.rows.(src) <- [||]
      else if tag >= 0 && tag < Array.length row then row.(tag) <- Perm.Nil)
    t.rows

let generation t = t.generation
