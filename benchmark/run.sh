#!/usr/bin/env bash
# Build ndqbench from this checkout's sources and run it; every argument
# passes through to it.  From the repository root:
#
#   bash benchmark/run.sh --workload eval_tree --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout stays the
# result.  Outside a full checkout (no dune-project or lib/) it exits 2.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: not a full checkout of the repository (dune-project or lib/ missing)" >&2
  exit 2
fi
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled --display=quiet ./benchmark/ndqbench.exe 1>&2
exec ./_build/default/benchmark/ndqbench.exe "$@"
