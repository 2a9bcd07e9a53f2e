#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the root of a checkout.  Build output goes to stderr, so
# the last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/bench.exe ./bin/hypart.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
