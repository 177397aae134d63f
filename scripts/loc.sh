#!/bin/sh
# Code size: the line count of every .ml and .mli file per lib/
# directory, the lib/ total, and the bench/ and bin/ directories.  Run
# from the repository root:
#
#   sh scripts/loc.sh
#
# CI appends the output to the job summary so the number is tracked
# next to the benchmark.
set -eu

cd "$(dirname "$0")/.."

lines() {
  find "$1" -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l
}

total=0
for dir in lib/*/; do
  n=$(lines "$dir")
  printf '%-16s %6d\n' "${dir%/}" "$n"
  total=$((total + n))
done
printf '%-16s %6d\n' "lib total" "$total"
for dir in bench bin; do
  printf '%-16s %6d\n' "$dir" "$(lines "$dir")"
done
