(* In-process interleaved A/B driver for the predictor stack (PR 10).

   Arm A is the default dispatch (superblocks + return-address stack +
   indirect inline caches); arm B is --no-ras (superblocks without the
   dynamic-junction predictors).  Each cell's A and B runs execute back
   to back inside ONE process, each from a compacted heap, so CPU
   frequency drift, container scheduling and allocator state hit both
   arms of the same cell alike — much tighter than interleaving whole
   processes.  A discarded warmup pair first touches every code path.

   Only the machine-interpreter cells are run: they are the only rows
   whose dispatch path the predictors can change.  Digests must be
   byte-identical across every run and arm (the predictors choose the
   dispatch path, never the charge order); the driver fails loudly if
   any run disagrees.

   Each arm is reported by its min, median and interquartile range, not
   a mean, and a cell's verdict names a faster arm only when the two
   arms' min-max ranges do not overlap; otherwise it reads "no call".

   Usage: ab.exe --json FILE [--pairs N] [--warmup N] *)

module Suite = Dipc_bench_suite.Suite
module Machine = Dipc_hw.Machine

let cells =
  [
    ("machine_hotloop", Suite.bench_machine_hotloop);
    ("machine_superblock", Suite.bench_machine_superblock);
    ("machine_callret", Suite.bench_machine_callret);
  ]

type run = { arm : string; ras : bool; results : Suite.bench_result list }

let run_cell ~ras f =
  Machine.set_default_ras ras;
  Gc.compact ();
  let r = f () in
  Machine.set_default_ras true;
  r

(* One pair = for each cell, its A and B runs back to back — the finest
   interleaving grain, so slow drift (CPU frequency, container
   scheduling) lands on both arms of the same cell alike. *)
let run_pair () =
  let ab =
    List.map (fun (_, f) -> (run_cell ~ras:true f, run_cell ~ras:false f)) cells
  in
  ( { arm = "A"; ras = true; results = List.map fst ab },
    { arm = "B"; ras = false; results = List.map snd ab } )

(* Per-arm spread of a metric: min, quartiles (linear interpolation
   between order statistics), max. *)
type spread = { min : float; q1 : float; median : float; q3 : float; max : float }

let spread l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  let q p =
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  { min = a.(0); q1 = q 0.25; median = q 0.5; q3 = q 0.75; max = a.(n - 1) }

(* Higher sim-MIPS is better.  A win needs the whole of one arm's range
   above the whole of the other's. *)
let verdict a b =
  if a.min > b.max then "A faster"
  else if b.min > a.max then "B faster"
  else "no call (ranges overlap)"

let () =
  let out = ref "" and pairs = ref 5 and warmup = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--json" :: f :: rest ->
        out := f;
        parse rest
    | "--pairs" :: n :: rest ->
        pairs := int_of_string n;
        parse rest
    | "--warmup" :: n :: rest ->
        warmup := int_of_string n;
        parse rest
    | a :: _ ->
        Printf.eprintf
          "usage: ab.exe --json FILE [--pairs N] [--warmup N] (got %s)\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !out = "" || !pairs < 1 then (
    prerr_endline "usage: ab.exe --json FILE [--pairs N>=1] [--warmup N]";
    exit 2);
  for _ = 1 to !warmup do
    ignore (run_pair ())
  done;
  let runs = ref [] in
  for i = 1 to !pairs do
    let a, b = run_pair () in
    runs := !runs @ [ a; b ];
    let m name r =
      (List.find (fun x -> x.Suite.b_name = name) r.results).Suite.b_metric
    in
    Printf.printf "pair %d: callret A %.3f / B %.3f sim-MIPS\n%!" i
      (m "machine_callret" a) (m "machine_callret" b)
  done;
  let runs = !runs in
  (* Digest identity across every run and arm, per cell. *)
  List.iter
    (fun (name, _) ->
      let ds =
        List.map
          (fun r ->
            (List.find (fun x -> x.Suite.b_name = name) r.results)
              .Suite.b_digest)
          runs
      in
      match ds with
      | [] -> ()
      | d0 :: _ ->
          if not (List.for_all (( = ) d0) ds) then (
            Printf.eprintf "digest drift in %s across A/B runs\n" name;
            exit 1))
    cells;
  let cell name r = List.find (fun x -> x.Suite.b_name = name) r.results in
  let arm_runs a = List.filter (fun r -> r.arm = a) runs in
  let buf = Buffer.create 65536 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"schema\": \"dipc-bench/ab-v2\",\n";
  add
    "  \"description\": \"Interleaved A/B comparison of the dynamic-junction \
     predictors: arm A is the default dispatch (superblocks + return-address \
     stack + indirect inline caches), arm B is --no-ras (superblocks with the \
     predictors disabled).  Each cell's A and B runs execute back to back \
     inside one process, each from a compacted heap, after a discarded \
     warmup pair, so thermal/noise drift hits both arms of the same cell \
     alike.  Digests are byte-identical across every run and arm; only \
     wall-clock derived columns move.  Each arm is summarised by min, \
     median and IQR of its sim-MIPS; the verdict names a faster arm only \
     when the arms' min-max ranges do not overlap.\",\n";
  add "  \"interleaving\": [%s],\n"
    (String.concat ", " (List.map (fun r -> "\"" ^ r.arm ^ "\"") runs));
  add "  \"summary\": {\n";
  let n_cells = List.length cells in
  let arm_spread name a =
    spread (List.map (fun r -> (cell name r).Suite.b_metric) (arm_runs a))
  in
  List.iteri
    (fun ci (name, _) ->
      let a = arm_spread name "A" and b = arm_spread name "B" in
      let side a =
        match arm_runs a with
        | [] -> 0
        | r :: _ -> List.assoc "side_exits" (cell name r).Suite.b_counters
      in
      add "    \"%s\": {\n" name;
      List.iter
        (fun (arm, s) ->
          add "      \"%s_sim_mips\": {\"min\": %.3f, \"median\": %.3f, \"iqr\": %.3f, \
               \"max\": %.3f},\n"
            arm s.min s.median (s.q3 -. s.q1) s.max)
        [ ("A", a); ("B", b) ];
      add "      \"speedup_median\": %.3f,\n" (a.median /. b.median);
      add "      \"verdict\": \"%s\",\n" (verdict a b);
      add "      \"A_side_exits\": %d,\n" (side "A");
      add "      \"B_side_exits\": %d,\n" (side "B");
      add "      \"digest_identical\": true\n";
      add "    }%s\n" (if ci = n_cells - 1 then "" else ","))
    cells;
  add "  },\n";
  add "  \"runs\": [\n";
  let n_runs = List.length runs in
  List.iteri
    (fun ri r ->
      add "    {\n      \"arm\": \"%s\",\n      \"ras\": %b" r.arm r.ras;
      List.iter
        (fun (name, _) ->
          let c = cell name r in
          add ",\n      \"%s\": {\n" name;
          add "        \"wall_s\": %.6f,\n" c.Suite.b_wall_s;
          add "        \"sim_mips\": %.3f,\n" c.Suite.b_metric;
          add "        \"instret\": %d,\n" c.Suite.b_instret;
          add "        \"counters\": {%s},\n"
            (String.concat ", "
               (List.map
                  (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v)
                  c.Suite.b_counters));
          add "        \"digest\": \"%s\"\n      }" c.Suite.b_digest)
        cells;
      add "\n    }%s\n" (if ri = n_runs - 1 then "" else ","))
    runs;
  add "  ]\n}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  List.iter
    (fun (name, _) ->
      let a = arm_spread name "A" and b = arm_spread name "B" in
      let show s =
        Printf.sprintf "min %.3f median %.3f IQR %.3f max %.3f" s.min s.median
          (s.q3 -. s.q1) s.max
      in
      Printf.printf "%-20s A %s\n%-20s B %s  sim-MIPS\n%-20s speedup %.3fx (medians): %s\n"
        name (show a) "" (show b) "" (a.median /. b.median) (verdict a b))
    cells;
  Printf.printf "wrote %s\n" !out
