(* Summary statistics of repeated measurements, and the verdict of
   [run.exe compare]. *)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads read the same here as in
   any script that checks them.  A single sample is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    let median =
      if ld mod 2 = 1 then a.(ld / 2) else (a.((ld / 2) - 1) +. a.(ld / 2)) /. 2.
    in
    (q 1, median, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

type verdict = {
  a : float * float * float;  (** A's q1, median, q3 *)
  b : float * float * float;
  wins : int;  (** pairs (A's k-th run against B's k-th) B won *)
  pairs : int;
  verdict : string;  (** improved, unchanged, regressed or unresolved *)
}

(* [xs] are A's runs and [ys] B's, in run order.  [bound] is the share of
   A's median by which B may be worse before it counts as regressed. *)
let verdict ~better ~bound xs ys =
  let lower = better = "lower" in
  let ((a1, am, a3) as a) = quartiles xs and ((b1, bm, b3) as b) = quartiles ys in
  let pairs = min (List.length xs) (List.length ys) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let beats y x = if lower then y < x else y > x in
  let wins = List.length (List.filter Fun.id (List.map2 beats (take ys) (take xs))) in
  let gain = if lower then am -. bm else bm -. am in
  let rel v = if am = 0. then 0. else v /. am in
  let spread = Float.max (rel (a3 -. a1)) (if bm = 0. then 0. else (b3 -. b1) /. bm) in
  (* every run of [us] beats every run of [vs] *)
  let all_beat us vs = List.for_all (fun u -> List.for_all (beats u) vs) us in
  let verdict =
    if 10 * wins >= 9 * pairs && gain > a3 -. a1 then "improved"
    else if rel (-.gain) > bound && all_beat xs ys then "regressed"
    else if spread > bound && not (all_beat ys xs) then "unresolved"
    else if rel (-.gain) > bound then "regressed"
    else "unchanged"
  in
  { a; b; wins; pairs; verdict }
