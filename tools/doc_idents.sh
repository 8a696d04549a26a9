#!/bin/sh
# Backticked `Module.name` identifiers in the docs that name nothing in
# the code.  For each one, when a tracked .ml/.mli under lib/, bench/,
# bin/ or benchmark/ is named after the module (bench/suite.ml for
# `Suite`), `name` must occur in it as a whole word; otherwise (a
# library or nested module: `Gc.minor_words`, `Sleepq.give`) it must
# occur as a word in any of those files.
#
#   tools/doc_idents.sh [DOC...]   (default DESIGN.md README.md; paths
#                                   relative to the repository root, or
#                                   absolute)
#
# Prints one `DOC:LINE: Module.name` line per hit and exits 1 if there
# is any.  A word count, not a resolver: a name that survives in a
# comment, or in another file of the same basename, hides a stale
# reference; it never flags a live one.  File names (`EXPERIMENTS.md`,
# `BENCH_9.json`) are skipped.  Read-only.
set -eu

cd "$(git rev-parse --show-toplevel)"
[ $# -gt 0 ] || set -- DESIGN.md README.md

hits=$(git ls-files -z 'lib/*.ml' 'lib/*.mli' 'bench/*.ml' 'bench/*.mli' \
  'bin/*.ml' 'bin/*.mli' 'benchmark/*.ml' 'benchmark/*.mli' |
  xargs -0 awk -v docs="$*" '
  # The words of each module (named after its file) and of all of them.
  {
    m = FILENAME; sub(/.*\//, "", m); sub(/\.mli?$/, "", m)
    m = toupper(substr(m, 1, 1)) substr(m, 2)
    mods[m] = 1
    n = split($0, w, /[^A-Za-z0-9_'"'"']+/)
    for (i = 1; i <= n; i++) if (w[i] != "") { inmod[m, w[i]] = 1; any[w[i]] = 1 }
  }
  # The Module.name tokens inside each doc line'"'"'s backtick spans.
  END {
    nd = split(docs, doc, " ")
    for (d = 1; d <= nd; d++) {
      line = 0
      while ((getline l < doc[d]) > 0) {
        line++
        n = split(l, part, "`")
        for (i = 2; i <= n; i += 2) {
          s = part[i]
          while (match(s, /[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_'"'"']*/)) {
            tok = substr(s, RSTART, RLENGTH)
            pre = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
            s = substr(s, RSTART + RLENGTH)
            split(tok, mn, ".")
            if (pre ~ /[A-Za-z0-9_]/ || mn[2] ~ /^(md|mli?|jsonl?|txt|sh|exe)$/) continue
            if (mn[1] in mods ? !((mn[1], mn[2]) in inmod) : !(mn[2] in any))
              print doc[d] ":" line ": " tok
          }
        }
      }
      close(doc[d])
    }
  }')

if [ -n "$hits" ]; then
  printf '%s\n' "$hits"
  exit 1
fi
