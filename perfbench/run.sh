#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to standard error, so
# the benchmark's JSON result stays the last line of standard output.
set -e
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
