#!/usr/bin/env bash
# Build the programs under test and the harness from source, then run
# one benchmark workload. Run from the repository root:
#   bash perfbench/run.sh --workload grid-tran --seed 1 --seconds 20 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an opm source tree" >&2
  exit 2
fi
dune build --root . --cache=disabled ./bin/opm_sim.exe ./bin/opm_serve.exe ./perfbench/main.exe ./perfbench/calibd.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
