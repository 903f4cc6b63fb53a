#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it:
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the benchmark's result is the last line
# of stdout.  Exits non-zero when the build fails (e.g. when the
# libraries are not present next to this directory).
set -u
cd "$(dirname "$0")/.." || exit 2
if ! dune build --root . ./perfbench/perfbench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
