(* Deterministic splitmix64 pseudo-random number generator.

   The simulator must be reproducible across runs and platforms, so we avoid
   [Random] and use an explicit-state generator.  Splitmix64 passes BigCrush
   and needs only one 64-bit word of state. *)

(* The state word lives in an 8-byte [Bytes.t], read and written through
   the unboxed 64-bit primitives: a [mutable state : int64] field would
   box a fresh [int64] on every draw.  The bytes are only ever read back
   by the same primitives, so their endianness is irrelevant. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let golden = 0x9E3779B97F4A7C15L

(* Splitmix64's output function: a bijective avalanche of one word.
   [Trace.digest] applies it to the trace's fold state. *)
let[@inline] finalise z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  let z = Int64.add (get_state t 0) golden in
  set_state t 0 z;
  finalise z

(* Splitmix64's intended forking discipline: seed the child from the
   parent's next output.  The output function is a bijective mix of the
   Weyl-sequence counter, so child and parent walk statistically
   independent sequences while a given parent seed still reproduces the
   same family of streams run after run. *)
let split t = of_state (next_int64 t)

(* Uniform float in [0, 1). Uses the top 53 bits.  Every 53-bit integer
   is an exact double and scaling it by a power of two is exact, so the
   multiply gives the same bits as dividing by 2^53, at a lower cost. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

(* Uniform integer in [0, bound).  The shift keeps the value within
   OCaml's 63-bit positive int range. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* Uniform integer in [0, bound) without modulo bias: draw 61-bit
   values (so the range itself stays a positive OCaml int) and reject
   the truncated tail.  [int] above keeps its historic `r mod bound`
   bias: no simulation or pinned digest draws through it any more, but
   the repository benchmark's argument draws (benchmark/workloads.ml)
   and a unit test do, and changing its stream would change theirs.
   Bounded draws in the simulator (the open-arrival workloads) use this
   one.  The rejection loop draws a variable number of words, so the
   two functions are not stream-compatible — see the determinism
   contract in DESIGN.md Sec. 10. *)
let int_unbiased t bound =
  if bound <= 0 then invalid_arg "Rng.int_unbiased: bound must be positive";
  let range = 1 lsl 61 in
  let limit = range - (range mod bound) in
  (* A loop, not a local recursive function: the closure would be
     allocated on every call. *)
  let r = ref (Int64.to_int (Int64.shift_right_logical (next_int64 t) 3)) in
  while !r >= limit do
    r := Int64.to_int (Int64.shift_right_logical (next_int64 t) 3)
  done;
  !r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Exponential distribution with the given mean. *)
let exponential t ~mean =
  let u = float t in
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

(* Uniform float in [lo, hi). *)
let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)
