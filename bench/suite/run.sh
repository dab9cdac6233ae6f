#!/usr/bin/env bash
# Build the benchmark and the daemon from source, then run the benchmark
# with the given arguments, from the root of the repository:
#
#   bash bench/suite/run.sh --workload serve-fairshare --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
dune build --root . --display quiet ./bench/suite/main.exe ./bin/fairsched.exe >&2
exec ./_build/default/bench/suite/main.exe \
  --serve-exe ./_build/default/bin/fairsched.exe "$@"
