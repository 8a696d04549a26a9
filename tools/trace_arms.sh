#!/bin/sh
# Ablation arms of the trace's per-event cost on the pinned OLTP cells.
#
#   tools/trace_arms.sh [ROUNDS [REPS]]   (default 6 rounds of 3 reps)
#
# Builds the working tree four times in a temporary copy, three of them
# with lib/sim/trace.ml cut down, and times [Oltp.run ~seed:41] (96
# threads per tier, in memory) on the Linux and the dIPC configuration
# under seven arms, traced ones with a 4Ki ring unless stated:
#
#   untraced  no tracer (the HEAD build)
#   null      ~trace:Trace.null (the HEAD build)
#   nofold    traced, digest fold removed: no event word, no chain step
#   noring    traced, the eight ring array stores removed
#   neither   traced, both removed
#   head      traced, the tree as it is
#   ring1     traced, the tree as it is, with the suite's 1-event ring
#
# Each round runs every arm once per configuration, in that order, in a
# fresh process (OCAMLRUNPARAM=s=8M, the benchmark's nursery); each run
# takes the minimum wall of REPS back-to-back [Oltp.run]s.  The table
# gives each arm's minimum over the rounds, its difference from the
# untraced arm, and the run's [Gc.minor_words].  An arm that allocates
# differently from HEAD measures the allocation, not the code it cuts,
# so the script then fails.  Builds in a temporary directory, which it
# removes; the tree is not touched.
set -eu

rounds=${1:-6}
reps=${2:-3}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/trace_arms.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

# One copy of the tree per build; [cut] applies a sed script to its
# trace.ml and checks that the script changed exactly [n] lines.
copy() {
  mkdir -p "$work/$1"
  (cd "$root" && git ls-files -co --exclude-standard -- lib dune dune-project dune-workspace |
    tar -cf - -T -) | tar -xf - -C "$work/$1"
  # The cuts leave unused values behind; warnings stay warnings here.
  printf '(env (_ (flags (:standard -w -a))))\n' > "$work/$1/dune"
  mkdir -p "$work/$1/arms"
  cp "$work/arms.ml" "$work/$1/arms/arms.ml"
  printf '(executable (name arms) (libraries dipc_sim dipc_workloads unix))\n' \
    > "$work/$1/arms/dune"
}
cut() {
  f="$work/$1/lib/sim/trace.ml"
  cp "$f" "$f.orig"
  sed -i "$2" "$f"
  changed=$(diff "$f.orig" "$f" | grep -c '^>' || true)
  removed=$(diff "$f.orig" "$f" | grep -c '^<' || true)
  if [ "$changed" -ne "$3" ] && [ "$removed" -ne "$3" ]; then
    echo "trace_arms: cut '$1' changed $changed/$removed lines of trace.ml, expected $3" >&2
    exit 1
  fi
}

cat > "$work/arms.ml" <<'EOF'
(* arms.exe MODE CONFIG REPS CAPACITY: MODE is untraced, null or traced;
   CONFIG linux or dipc; CAPACITY the traced ring's.  Prints the minimum
   wall of REPS runs and the minor words of the last run. *)
module O = Dipc_workloads.Oltp
module Trace = Dipc_sim.Trace

let () =
  let mode = Sys.argv.(1) and reps = int_of_string Sys.argv.(3) in
  let capacity = int_of_string Sys.argv.(4) in
  let config = match Sys.argv.(2) with "linux" -> O.Linux | _ -> O.Dipc in
  let best = ref infinity and words = ref 0. in
  for _ = 1 to reps do
    let trace =
      match mode with
      | "untraced" -> None
      | "null" -> Some Trace.null
      | _ -> Some (Trace.create ~capacity ())
    in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (O.run ~seed:41 ?trace ~config ~db_mode:O.In_memory ~threads:96 ());
    let t1 = Unix.gettimeofday () in
    words := Gc.minor_words () -. w0;
    if t1 -. t0 < !best then best := t1 -. t0
  done;
  Printf.printf "%.6f %.0f\n" !best !words
EOF

for build in head nofold noring neither; do copy "$build"; done
fold='s/^\( *\)chain t (.*);$/\1();/'
ring='/^ *Array\.unsafe_set t\.[a-z]* i [a-z]*;$/d'
cut nofold "$fold" 4
cut noring "$ring" 8
cut neither "$fold" 4
cut neither "$ring" 8
for build in head nofold noring neither; do
  echo "building $build" >&2
  dune build --root "$work/$build" --display=quiet arms/arms.exe >&2
done

arm_build() { case $1 in untraced | null | ring1) echo head ;; *) echo "$1" ;; esac; }
arm_mode() { case $1 in untraced | null) echo "$1" ;; *) echo traced ;; esac; }
arm_capacity() { case $1 in ring1) echo 1 ;; *) echo 4096 ;; esac; }
arms="untraced null nofold noring neither head ring1"
: > "$work/runs"
r=1
while [ "$r" -le "$rounds" ]; do
  echo "round $r/$rounds" >&2
  for config in linux dipc; do
    for arm in $arms; do
      out=$(OCAMLRUNPARAM=s=8M "$work/$(arm_build $arm)/_build/default/arms/arms.exe" \
        "$(arm_mode $arm)" "$config" "$reps" "$(arm_capacity $arm)")
      echo "$config $arm $out" >> "$work/runs"
    done
  done
  r=$((r + 1))
done

awk -v arms="$arms" '
  { k = $1 " " $2
    if (!(k in best) || $3 < best[k]) best[k] = $3
    if (k in words && words[k] != $4) varies[k] = 1
    words[k] = $4 }
  END {
    n = split(arms, a, " "); bad = 0
    printf "%-6s %-9s %10s %10s %14s\n", "cell", "arm", "min_s", "-untraced", "minor_words"
    split("linux dipc", cs, " ")
    for (c = 1; c <= 2; c++) {
      for (i = 1; i <= n; i++) {
        k = cs[c] " " a[i]
        printf "%-6s %-9s %10.4f %+10.4f %14.0f%s\n", cs[c], a[i], best[k],
          best[k] - best[cs[c] " untraced"], words[k],
          (words[k] != words[cs[c] " head"] || (k in varies)) ? "  <- allocates differently" : ""
        if (words[k] != words[cs[c] " head"] || (k in varies)) bad = 1
      }
    }
    exit bad
  }' "$work/runs" || {
  echo "trace_arms: an arm allocates differently from HEAD; its time is not comparable" >&2
  exit 1
}
