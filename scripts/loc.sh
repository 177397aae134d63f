#!/bin/sh
# Size of the library: the line count of every .ml and .mli file under
# lib/, per directory and in total.  Run from the repository root:
#
#   sh scripts/loc.sh
#
# CI appends the output to the job summary so the number is tracked
# next to the bench results.
set -eu

cd "$(dirname "$0")/.."

total=0
for dir in lib/*/; do
  n=$(find "$dir" -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)
  printf '%-16s %6d\n' "${dir%/}" "$n"
  total=$((total + n))
done
printf '%-16s %6d\n' "lib total" "$total"
