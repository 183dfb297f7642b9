#!/bin/sh
# Build slifbench and the slif CLI from source, then run the benchmark,
# from the root of a checkout:
#
#   sh slifbench/run.sh --workload compile_corpus --seed 1 --seconds 10 --trace 0
#   sh slifbench/run.sh --seed 1 --out result.json      # every workload
#   sh slifbench/run.sh compare --base a.json --head b.json
#
# dune's progress goes to stderr; the last stdout line of a one-workload
# run is its JSON summary.
set -e
dune build --root . ./slifbench/slifbench.exe ./bin/slif_cli.exe 1>&2
exec ./_build/default/slifbench/slifbench.exe "$@"
