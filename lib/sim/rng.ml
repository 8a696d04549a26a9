(* Deterministic splitmix64 pseudo-random number generator.

   The simulator must be reproducible across runs and platforms, so we avoid
   [Random] and use an explicit-state generator.  Splitmix64 passes BigCrush
   and needs only one 64-bit word of state. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Splitmix64's intended forking discipline: seed the child from the
   parent's next output.  The output function is a bijective mix of the
   Weyl-sequence counter, so child and parent walk statistically
   independent sequences while a given parent seed still reproduces the
   same family of streams run after run. *)
let split t = { state = next_int64 t }

(* Uniform float in [0, 1). Uses the top 53 bits. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

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
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 3) in
    if r < limit then r mod bound else draw ()
  in
  draw ()

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Exponential distribution with the given mean. *)
let exponential t ~mean =
  let u = float t in
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

(* Uniform float in [lo, hi). *)
let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(* Bounded Pareto-ish heavy tail used for disk service times: returns the
   mean scaled by a factor in [0.5, ~4] with a long tail. *)
let heavy_tail t ~mean =
  let u = float t in
  let u = if u >= 0.999 then 0.999 else u in
  mean *. 0.5 /. (1.0 -. u) ** 0.35
