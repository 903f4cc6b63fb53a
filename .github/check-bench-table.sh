#!/usr/bin/env bash
# Fails unless every policy row of a committed bench table matches,
# token for token, the same policy's row in a fresh bench run.
#
#   .github/check-bench-table.sh BENCH_store.md BENCH_store.txt
#
# TABLE is the committed markdown file: its data rows are the
# "|"-framed lines after the |---| separator.  OUTPUT is what
# `bench/main.exe --only ...` printed: its data rows follow the
# "-----  ---" rule under the table header and end at the first line
# that is not a row.  Rows are keyed by their first token (the policy).
set -eu
table=$1
output=$2
awk -v table="$table" '
  function normalize(line) { gsub(/\|/, " ", line); $0 = line; $1 = $1; return $0 }
  FNR == NR {
    if ($0 ~ /^\|[-:| ]+\|$/) { body = 1; next }
    if (body && $0 ~ /^\|/) { row = normalize($0); want[$1] = row; order[++n] = $1; next }
    body = 0
    next
  }
  /^-+( +-+)+$/ { rows = 1; next }
  rows && ($1 in want) { got[$1] = normalize($0); next }
  { rows = 0 }
  END {
    status = 0
    if (n == 0) { print "::error::" table ": no table rows found"; exit 1 }
    for (k = 1; k <= n; k++) {
      p = order[k]
      if (!(p in got)) {
        printf "::error::%s: no %s row in the bench output\n", table, p
        status = 1
      } else if (got[p] != want[p]) {
        printf "::error::%s: %s row drifted\n  committed: %s\n  bench:     %s\n", table, p, want[p], got[p]
        status = 1
      }
    }
    if (status == 0) printf "%s: %d rows match the bench output\n", table, n
    exit status
  }
' "$table" "$output"
