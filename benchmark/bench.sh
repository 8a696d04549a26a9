#!/bin/sh
# Build the benchmark runner from source in this checkout, then run it
# with the given arguments (see benchmark/README.md).  Run from the root
# of the checkout.  The build stays inside the checkout: dune's shared
# cache is off, and a checkout without the simulator's sources fails here.
set -e
dune build --root . --cache=disabled --display=quiet benchmark/run.exe >&2
exec ./_build/default/benchmark/run.exe "$@"
