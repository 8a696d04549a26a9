#!/bin/sh
# Link layout of a built benchmark runner: the number of linked OCaml
# units and the address of its host-speed probe, [Run.probe].
#
#   tools/probe_layout.sh [RUN_EXE]   (default _build/default/benchmark/run.exe)
#
# benchmark/run.exe scales every host time by the probe's speed, and the
# probe's speed moves with where the linker places it.  Every unit the
# runner links puts one more call into the startup code, which sits in
# front of [Run]: a change that adds or removes a compilation unit
# shifts the probe and with it every scaled metric, on every workload.
# Compare this script's output for two builds before reading an A/B;
# equal lines mean no placement shift.  Read-only: it only runs nm.
set -eu

exe=${1:-_build/default/benchmark/run.exe}
if [ ! -f "$exe" ]; then
  echo "probe_layout: $exe not found (build it with: dune build benchmark/run.exe)" >&2
  exit 1
fi
syms=$(nm "$exe")
units=$(printf '%s\n' "$syms" | grep -c code_begin)
probe=$(printf '%s\n' "$syms" | awk '$3 ~ /^camlDune__exe__Run\.probe_[0-9]+$/ { print $1 }')
if [ -z "$probe" ]; then
  echo "probe_layout: no Run.probe symbol in $exe" >&2
  exit 1
fi
echo "units $units"
echo "Run.probe 0x$(printf '%s' "$probe" | sed 's/^0*//')"
