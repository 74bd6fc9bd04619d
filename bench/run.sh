#!/usr/bin/env bash
# run.sh builds the erminerd daemon and the ermbench program from this
# checkout's source and runs ermbench with the given arguments, e.g.
#
#   bash bench/run.sh --workload repair-explain --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -out results.json      # every workload
#
# Run it from the repository root. The binaries, the Go build cache and
# every temporary file live under .bench_build/, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

if [ ! -f bench/go.mod ] || [ ! -f go.mod ] || [ ! -d cmd/erminerd ]; then
    echo "bench/run.sh: run from the repository root (erminer sources not found)" >&2
    exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go build -o "$out/erminerd" ./cmd/erminerd
(cd bench && go build -o "$out/ermbench" .)
exec "$out/ermbench" "$@"
