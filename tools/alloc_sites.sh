#!/bin/sh
# Inline allocation sites of the per-event modules in a built executable:
# every function of the engine, trace, kernel, UNIX-socket and OLTP
# modules that allocates on the minor heap in its own code, with the
# size of each allocation in words.
#
#   tools/alloc_sites.sh [EXE]   (default _build/default/bin/dipc_cli.exe)
#
# On amd64, OCaml 5 allocates inline by bumping the young pointer down:
# `sub $N,%r15` in `objdump -d` is an allocation of N/8 words, headers
# included (a [Some x] is 2 words, a boxed float 2, a cons cell 3).  The
# compiler combines the allocations of one basic block into a single
# bump, so one size may be several blocks.  What this cannot see:
# allocations made by C primitives or the runtime (arrays built by
# [Array.make], a continuation captured by [Effect.perform]), and the
# code of functions from other modules that was inlined here counts
# here.  A site on a path that runs once per event is what to look for;
# the counts say nothing about how often a site runs.  Read-only: it
# only runs objdump.
set -eu

exe=${1:-_build/default/bin/dipc_cli.exe}
if [ ! -f "$exe" ]; then
  echo "alloc_sites: $exe not found (build it with: dune build)" >&2
  exit 1
fi
objdump -d --no-show-raw-insn "$exe" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = $2; gsub(/^<|>:$/, "", fn)
    keep = fn ~ /^caml(Dipc_sim__(Engine|Trace)|Dipc_kernel__(Kernel|Unix_socket)|Dipc_workloads__Oltp)\./
    next
  }
  keep && $2 == "sub" && $3 ~ /^\$0x[0-9a-f]+,%r15$/ {
    n = $3; sub(/^\$0x/, "", n); sub(/,%r15$/, "", n)
    words = 0
    for (i = 1; i <= length(n); i++)
      words = words * 16 + index("0123456789abcdef", substr(n, i, 1)) - 1
    sizes[fn] = sizes[fn] " " words / 8
  }
  END { for (f in sizes) print f ":" sizes[f] }
' | sort
