(* Shared golden-digest corpus helpers: one parser for the
   dipc-bench/v1 JSON report, used by the dune test suite
   (test_golden.ml), the parallel differential tests
   (test_parallel.ml), and the CI comparator (check_golden.ml) — the
   pins live in exactly one place, bench/BENCH_baseline.json. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let find_sub text pat from =
  let plen = String.length pat in
  let len = String.length text in
  let rec go i =
    if i + plen > len then None
    else if String.sub text i plen = pat then Some i
    else go (i + 1)
  in
  go from

(* The string value following the first [key] (which ends in the
   opening quote).  Values may contain spaces (the raw-state digests of
   the machine/engine experiments), so capture runs to the closing
   quote. *)
let quoted_after text key =
  match find_sub text key 0 with
  | None -> None
  | Some i ->
      let start = i + String.length key in
      String.index_from_opt text start '"'
      |> Option.map (fun stop -> String.sub text start (stop - start))

(* The number following the first [key]. *)
let number_after text key =
  match find_sub text key 0 with
  | None -> None
  | Some i ->
      let start = i + String.length key in
      let stop = ref start in
      let len = String.length text in
      while
        !stop < len
        && (match text.[!stop] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.sub text start (!stop - start))

(* Top-level scalar fields ("golden_digest", "total_wall_s", ...): first
   occurrence wins, which is the document header in our flat emitter. *)
let scalar_string text key = quoted_after text (Printf.sprintf "\"%s\": \"" key)

let scalar_float text key = number_after text (Printf.sprintf "\"%s\": " key)

type mismatch = {
  mm_name : string;
  mm_expected : string;  (* "<missing>" when absent on that side *)
  mm_actual : string;
}

(* --- Row-based view -----------------------------------------------------

   The one scanner for a report's experiment rows: the digest
   comparison projects their (name, digest) pairs, the
   deterministic-counter gate and the sim-MIPS ratchet read the other
   columns.  Rows are parsed by splitting the report at every name-key
   marker (the emitter writes one experiment object per line), so a
   dropped or reordered row shows up as a positional mismatch rather
   than being silently realigned. *)

type row = {
  r_name : string;
  r_counters : (string * int) list; (* in emission order *)
  r_digest : string;
  r_sim_mips : float option;
  r_instret : int option;
}

(* Parse the ["key": 123, ...] pairs of one flat JSON object starting
   just after its opening brace; stops at the closing brace. *)
let parse_int_object text start stop =
  let rec collect acc i =
    if i >= stop then List.rev acc
    else
      match String.index_from_opt text i '"' with
      | None -> List.rev acc
      | Some q0 when q0 >= stop -> List.rev acc
      | Some q0 -> (
          match String.index_from_opt text (q0 + 1) '"' with
          | None -> List.rev acc
          | Some q1 when q1 >= stop -> List.rev acc
          | Some q1 ->
              let key = String.sub text (q0 + 1) (q1 - q0 - 1) in
              let vstart = ref (q1 + 1) in
              while
                !vstart < stop
                && (text.[!vstart] = ':' || text.[!vstart] = ' ')
              do
                incr vstart
              done;
              let vstop = ref !vstart in
              while
                !vstop < stop
                && (match text.[!vstop] with '0' .. '9' | '-' -> true | _ -> false)
              do
                incr vstop
              done;
              let acc =
                match int_of_string_opt (String.sub text !vstart (!vstop - !vstart)) with
                | Some v -> (key, v) :: acc
                | None -> acc
              in
              collect acc !vstop)
  in
  collect [] start

let parse_rows text =
  let marker = {|{"name": "|} in
  let rec segments acc from =
    match find_sub text marker from with
    | None -> List.rev acc
    | Some i ->
        let stop =
          match find_sub text marker (i + String.length marker) with
          | Some j -> j
          | None -> String.length text
        in
        segments (String.sub text i (stop - i) :: acc) stop
  in
  List.map
    (fun seg ->
      let counters =
        match find_sub seg {|"counters": {|} 0 with
        | None -> []
        | Some i -> (
            let start = i + String.length {|"counters": {|} in
            match String.index_from_opt seg start '}' with
            | None -> []
            | Some stop -> parse_int_object seg start stop)
      in
      {
        r_name =
          Option.value (quoted_after seg {|"name": "|}) ~default:"<unnamed>";
        r_counters = counters;
        r_digest =
          Option.value (quoted_after seg {|"digest": "|}) ~default:"<missing>";
        r_sim_mips = number_after seg {|"sim_mips": |};
        r_instret = Option.map int_of_float (number_after seg {|"instret": |});
      })
    (segments [] 0)

(* The (name, digest) pair of every experiment row, in report order. *)
let parse_report text =
  List.map (fun r -> (r.r_name, r.r_digest)) (parse_rows text)

let parse_file path = parse_report (read_file path)

let string_of_counters cs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs) ^ "}"

(* Deterministic-counter gate: every counter cell of every baseline row
   must match the candidate exactly — same rows, same order, same
   counter keys in the same order, same integer values.  A mismatch
   names the offending experiment and counter cell so the CI log points
   at the exact regression. *)
let compare_counters ~baseline ~candidate =
  let rec go acc base cand =
    match (base, cand) with
    | [], [] -> List.rev acc
    | b :: bs, [] ->
        go
          ({ mm_name = b.r_name; mm_expected = string_of_counters b.r_counters;
             mm_actual = "<missing row>" } :: acc)
          bs []
    | [], c :: cs ->
        go
          ({ mm_name = c.r_name; mm_expected = "<missing row>";
             mm_actual = string_of_counters c.r_counters } :: acc)
          [] cs
    | b :: bs, c :: cs ->
        let acc =
          if b.r_name <> c.r_name then
            { mm_name = Printf.sprintf "%s/%s (row order)" b.r_name c.r_name;
              mm_expected = b.r_name; mm_actual = c.r_name } :: acc
          else
            let rec cells acc bl cl =
              match (bl, cl) with
              | [], [] -> acc
              | (k, v) :: _, [] ->
                  { mm_name = Printf.sprintf "%s.%s" b.r_name k;
                    mm_expected = string_of_int v; mm_actual = "<missing>" } :: acc
              | [], (k, v) :: _ ->
                  { mm_name = Printf.sprintf "%s.%s" b.r_name k;
                    mm_expected = "<missing>"; mm_actual = string_of_int v } :: acc
              | (bk, bv) :: bl', (ck, cv) :: cl' ->
                  let acc =
                    if bk <> ck then
                      { mm_name = Printf.sprintf "%s.%s/%s (key order)" b.r_name bk ck;
                        mm_expected = bk; mm_actual = ck } :: acc
                    else if bv <> cv then
                      { mm_name = Printf.sprintf "%s.%s" b.r_name bk;
                        mm_expected = string_of_int bv; mm_actual = string_of_int cv }
                      :: acc
                    else acc
                  in
                  cells acc bl' cl'
            in
            cells acc b.r_counters c.r_counters
        in
        go acc bs cs
  in
  go [] (parse_rows baseline) (parse_rows candidate)

(* Ratcheted sim-MIPS floor: for every baseline row that actually retired
   instructions, the candidate must stay above [ratio] x the baseline's
   sim_mips.  The ratio is deliberately slack (CI hosts are noisy and
   shared); the point is to catch order-of-magnitude dispatch
   regressions, not single-digit jitter. *)
let compare_mips_ratchet ~ratio ~baseline ~candidate =
  let cand = parse_rows candidate in
  let find name = List.find_opt (fun r -> r.r_name = name) cand in
  List.filter_map
    (fun b ->
      match (b.r_instret, b.r_sim_mips) with
      | Some i, Some bm when i > 0 && bm > 0. -> (
          match find b.r_name with
          | None ->
              Some
                { mm_name = b.r_name; mm_expected = Printf.sprintf "%.3f MIPS" bm;
                  mm_actual = "<missing row>" }
          | Some c -> (
              match c.r_sim_mips with
              | Some cm when cm >= ratio *. bm -> None
              | Some cm ->
                  Some
                    { mm_name = b.r_name;
                      mm_expected =
                        Printf.sprintf ">= %.3f MIPS (%.2f x %.3f)" (ratio *. bm)
                          ratio bm;
                      mm_actual = Printf.sprintf "%.3f MIPS" cm }
              | None ->
                  Some
                    { mm_name = b.r_name; mm_expected = Printf.sprintf "%.3f MIPS" bm;
                      mm_actual = "<no sim_mips>" }))
      | _ -> None)
    (parse_rows baseline)

(* --- Trend report over the benchmark history ---------------------------

   bench --json appends one dipc-bench-hist/v1 line per run to
   bench/BENCH_latest.jsonl (commit, dirty-tree flag, UTC time,
   per-experiment sim-MIPS + deterministic counters).  Each row's stamp
   says whether it came from the committed tree ("clean"), from
   uncommitted changes on top of it ("dirty"), or does not say (older
   rows, or no git).  [trend_report] diffs the last two lines:
   per-cell sim-MIPS movement and any counter that changed.  Purely
   informational — the single-baseline digest/counter/ratchet gates
   above stay the gates; this answers "what moved since the previous
   run" without editing the baseline. *)

let trend_report ~history =
  let lines =
    String.split_on_char '\n' history
    |> List.filter (fun l -> String.trim l <> "")
  in
  match List.rev lines with
  | [] | [ _ ] -> Error "trend needs at least two history rows"
  | cur_line :: prev_line :: _ ->
      let stamp line =
        let tree =
          if find_sub line "\"dirty\": true" 0 <> None then "dirty"
          else if find_sub line "\"dirty\": false" 0 <> None then "clean"
          else "tree unrecorded"
        in
        Printf.sprintf "%s (%s) @ %s"
          (Option.value (scalar_string line "commit") ~default:"unknown")
          tree
          (Option.value (scalar_string line "utc") ~default:"?")
      in
      let prev = parse_rows prev_line in
      let cur = parse_rows cur_line in
      let out = ref [] in
      let emit s = out := s :: !out in
      emit (Printf.sprintf "trend: %s -> %s" (stamp prev_line) (stamp cur_line));
      List.iter
        (fun c ->
          match List.find_opt (fun p -> p.r_name = c.r_name) prev with
          | None -> emit (Printf.sprintf "  %-20s new experiment" c.r_name)
          | Some p ->
              (match (p.r_sim_mips, c.r_sim_mips) with
              | Some pm, Some cm when pm > 0. && cm > 0. ->
                  emit
                    (Printf.sprintf "  %-20s sim-MIPS %8.3f -> %8.3f  (%+.1f%%)"
                       c.r_name pm cm ((cm /. pm -. 1.) *. 100.))
              | _ -> ());
              List.iter
                (fun (k, cv) ->
                  match List.assoc_opt k p.r_counters with
                  | Some pv when pv <> cv ->
                      emit
                        (Printf.sprintf "  %-20s %s %d -> %d (%+d)" c.r_name k
                           pv cv (cv - pv))
                  | Some _ -> ()
                  | None ->
                      emit
                        (Printf.sprintf "  %-20s %s <absent> -> %d" c.r_name k
                           cv))
                c.r_counters)
        cur;
      List.iter
        (fun p ->
          if not (List.exists (fun c -> c.r_name = p.r_name) cur) then
            emit (Printf.sprintf "  %-20s experiment dropped" p.r_name))
        prev;
      Ok (List.rev !out)

(* Compare a candidate report's per-experiment digests against the
   baseline's: order-sensitive on the baseline corpus (the suite order
   is part of the contract), and any extra/missing experiment is a
   mismatch too. *)
let compare_digests ~baseline ~candidate =
  let cand = parse_report candidate in
  let rec go acc base cand =
    match (base, cand) with
    | [], [] -> List.rev acc
    | (n, d) :: bs, [] ->
        go ({ mm_name = n; mm_expected = d; mm_actual = "<missing>" } :: acc) bs
          []
    | [], (n, d) :: cs ->
        go ({ mm_name = n; mm_expected = "<missing>"; mm_actual = d } :: acc) []
          cs
    | (bn, bd) :: bs, (cn, cd) :: cs ->
        let acc =
          if bn <> cn then
            { mm_name = bn ^ "/" ^ cn; mm_expected = bn; mm_actual = cn } :: acc
          else if bd <> cd then
            { mm_name = bn; mm_expected = bd; mm_actual = cd } :: acc
          else acc
        in
        go acc bs cs
  in
  go [] (parse_report baseline) cand
