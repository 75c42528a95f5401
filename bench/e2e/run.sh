#!/usr/bin/env bash
# Build hubbench from source in this checkout, then run it:
#   bash bench/e2e/run.sh [hubbench run options]
# Run from the repository root. dune's output goes to stderr so the
# last line of standard output stays hubbench's JSON summary.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/hubbench.exe 1>&2
exec ./_build/default/bench/e2e/hubbench.exe run "$@"
