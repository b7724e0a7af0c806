#!/usr/bin/env bash
# The repo's benchmark, one command. Builds bench/perf once into
# bench/out/ and runs it with the given arguments:
#
#   bench/run.sh                 full ledger: timed reps -> held-out seed ->
#                                SLO ladders -> probes -> traced runs;
#                                writes bench/out/ledger.json
#   bench/run.sh -smoke          the same at ~2 % size, in under 30 s
#   bench/run.sh -reps 7 -seed 3 -workload serve_cross -trace 0
#   bench/run.sh -selfcheck      two sets of the same binary, compared
#   bench/run.sh -compare old.json new.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                BENCHMARK.json's command: one workload,
#                                one JSON result on the last line
#
# Everything it writes, the Go build cache included, stays under
# bench/out/. Exits non-zero when the build or any check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
out=bench/out
mkdir -p "$out"
# The go command also keeps telemetry counters under the user's config
# directory; point that inside bench/out/ for the build as well.
export GOCACHE="$PWD/$out/gocache"
XDG_CONFIG_HOME="$PWD/$out/config" go build -o "$out/perf" ./bench/perf
exec "$out/perf" -outdir "$out" "$@"
