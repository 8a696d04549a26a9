#!/bin/sh
# Exported values only their own module uses: every `val` declared in a
# tracked lib/**/*.mli whose name occurs, as a whole word, in no tracked
# .ml or .mli file outside its declaring module (the .mli and its .ml).
# Such a name needs no export; if its own .ml does not use it either,
# it needs no definition.
#
#   tools/dead_exports.sh
#
# Prints one `FILE: NAME` line per hit and exits 1 if there is any.
# A word count, not a resolver: a name shared with another module's
# value, or mentioned in a comment, hides a dead export; it never flags
# a live one.  Read-only.
set -eu

cd "$(git rev-parse --show-toplevel)"

hits=$(git ls-files -z '*.ml' '*.mli' | xargs -0 awk '
  # The names each lib/ interface declares.
  FILENAME ~ /^lib\/.*\.mli$/ && match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_]*/) {
    name = substr($0, RSTART, RLENGTH)
    sub(/^[ \t]*val[ \t]+/, "", name)
    decl[FILENAME, name] = 1
  }
  # The files each word occurs in.
  {
    n = split($0, words, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) {
      w = words[i]
      if (w != "" && !((w, FILENAME) in seen)) {
        seen[w, FILENAME] = 1
        files[w] = files[w] " " FILENAME
      }
    }
  }
  END {
    for (d in decl) {
      split(d, p, SUBSEP)
      mli = p[1]; name = p[2]; ml = substr(mli, 1, length(mli) - 1)
      n = split(files[name], fs, " ")
      used = 0
      for (i = 1; i <= n; i++) if (fs[i] != mli && fs[i] != ml) used = 1
      if (!used) print mli ": " name
    }
  }' | LC_ALL=C sort)

if [ -n "$hits" ]; then
  printf '%s\n' "$hits"
  exit 1
fi
