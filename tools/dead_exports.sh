#!/bin/sh
# Exported values nothing uses: every `val` declared in a tracked
# lib/**/*.mli whose name occurs, as a whole word, in no tracked .ml or
# .mli file other than its own declaration and its definition (two
# occurrences in all).
#
#   tools/dead_exports.sh
#
# Prints one `FILE: NAME` line per hit and exits 1 if there is any.
# A word count, not a resolver: a name shared with another module's
# value, or mentioned in a comment, hides a dead export; it never flags
# a live one.  Read-only.
set -eu

cd "$(git rev-parse --show-toplevel)"

# Whole-word occurrence count of every identifier in the tracked sources.
counts=$(git ls-files -z '*.ml' '*.mli' | xargs -0 cat \
  | tr -c 'A-Za-z0-9_' '\n' | grep -v '^$' | sort | uniq -c)

hits=$(git ls-files 'lib/*.mli' | while read -r mli; do
  sed -n 's/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_]*\).*/\1/p' "$mli" \
    | sort -u | while read -r name; do
      n=$(printf '%s\n' "$counts" | awk -v w="$name" '$2 == w { print $1 }')
      if [ "${n:-0}" -le 2 ]; then echo "$mli: $name"; fi
    done
done)

if [ -n "$hits" ]; then
  printf '%s\n' "$hits"
  exit 1
fi
