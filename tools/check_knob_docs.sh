#!/bin/sh
# Checks that the environment-variable tables in README.md and
# docs/SERVING.md list exactly the PARAGRAPH_* variables the code reads.
#
#   tools/check_knob_docs.sh [REPO_ROOT]
#
# The code side is every quoted "PARAGRAPH_*" name under src/, tools/,
# bench/ and examples/; the docs side is every table row that starts with a
# `PARAGRAPH_*` name, minus the CMake build options (option(...) in a
# CMakeLists.txt), which are configure-time switches, not env knobs. Prints
# each name found on only one side and exits 1 if there is any.
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
if [ "$status" -eq 0 ]; then
  echo "check_knob_docs: $(wc -l < "$tmp/code") PARAGRAPH_* variables, code and docs agree"
fi
exit "$status"
