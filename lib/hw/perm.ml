(* APL and capability permissions (Sec. 4.1).

   The ordered set mirrors Table 2: nil < call < read < write < owner.
   [Owner] exists only in software (dIPC domain handles); the hardware APL
   never stores it — dIPC translates owner to write when configuring
   grants (Sec. 5.2.2). *)

type t = Nil | Call | Read | Write | Owner

let[@inline] rank = function Nil -> 0 | Call -> 1 | Read -> 2 | Write -> 3 | Owner -> 4

(* [includes granted needed]: does holding [granted] satisfy a check for
   [needed]?  Read implies call-into-arbitrary-addresses; write implies
   read (Sec. 4.1). *)
let[@inline] includes granted needed = rank granted >= rank needed

let min a b = if rank a <= rank b then a else b

let equal a b = rank a = rank b

(* Hardware image of a software permission: owner handles grant full write
   access when installed in an APL. *)
let to_hardware = function Owner -> Write | (Nil | Call | Read | Write) as p -> p

let to_string = function
  | Nil -> "nil"
  | Call -> "call"
  | Read -> "read"
  | Write -> "write"
  | Owner -> "owner"

let pp ppf t = Fmt.string ppf (to_string t)
