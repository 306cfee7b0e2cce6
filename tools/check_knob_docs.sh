#!/bin/sh
# Checks that the environment-variable tables in README.md and
# docs/SERVING.md list exactly the PARAGRAPH_* variables the code reads,
# and, given the built daemon, that docs/SERVING.md's rows carry the flag,
# default and range its usage text prints for each of them.
#
#   tools/check_knob_docs.sh [REPO_ROOT [PARAGRAPH_SERVE_BINARY]]
#
# The code side is every quoted "PARAGRAPH_*" name under src/, tools/,
# bench/ and examples/; the docs side is every table row that starts with a
# `PARAGRAPH_*` name, minus the CMake build options (option(...) in a
# CMakeLists.txt), which are configure-time switches, not env knobs. Prints
# each name or row found on only one side and exits 1 if there is any.
set -eu

root=${1:-$(dirname "$0")/..}
cd "$root"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

grep -rhoE '"PARAGRAPH_[A-Z0-9_]+"' src tools bench examples |
  tr -d '"' | sort -u > "$tmp/code"

find . -name CMakeLists.txt -not -path './build*' -not -path './.bench_build/*' \
  -exec grep -hoE 'option\(PARAGRAPH_[A-Z0-9_]+' {} + |
  sed 's/^option(//' | sort -u > "$tmp/options"

grep -hoE '^\| `PARAGRAPH_[A-Z0-9_]+`' README.md docs/SERVING.md |
  sed 's/^| `//; s/`$//' | sort -u > "$tmp/tables"
comm -23 "$tmp/tables" "$tmp/options" > "$tmp/docs"

status=0
for name in $(comm -23 "$tmp/code" "$tmp/docs"); do
  echo "check_knob_docs: $name is read by the code but not in an env table of README.md or docs/SERVING.md"
  status=1
done
for name in $(comm -13 "$tmp/code" "$tmp/docs"); do
  echo "check_knob_docs: $name is in an env table of README.md or docs/SERVING.md but the code never reads it"
  status=1
done
if [ -n "${2:-}" ]; then
  { "$2" 2>&1 || true; } | sed -nE \
    -e 's/^  (--[a-z-]+)( [A-Z]+)?, (PARAGRAPH_[A-Z0-9_]+): (.*)$/\3 \1 \4/p' \
    -e 's/^  (PARAGRAPH_[A-Z0-9_]+): (.*)$/\1 — \2/p' | sort > "$tmp/usage"
  awk -F' *[|] *' '/^[|] `PARAGRAPH_/ { gsub(/`/, "")
    print $2, $3, "default " $4 ", range " $5 }' docs/SERVING.md |
    sort > "$tmp/serving"
  if ! diff "$tmp/serving" "$tmp/usage" > "$tmp/rows"; then
    sed 's/^/check_knob_docs: docs\/SERVING.md vs paragraph-serve usage: /' "$tmp/rows"
    status=1
  fi
fi
if [ "$status" -eq 0 ]; then
  echo "check_knob_docs: $(wc -l < "$tmp/code") PARAGRAPH_* variables, code and docs agree"
fi
exit "$status"
