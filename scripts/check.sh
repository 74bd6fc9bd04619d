#!/bin/sh
# check.sh — the repository's correctness gate.
#
# The race detector run is the gate for the parallel evaluation engine
# (shared index cache, evaluator shards, level-synchronized frontier):
# the parallel-path tests force worker counts > 1 even on small
# machines, so data races surface regardless of the host's CPU count.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
# internal/analysis/testdata holds the ermvet fixtures — intentionally
# hazardous code exempt from every sweep (the go tool skips testdata on
# its own; gofmt needs the explicit prune).
unformatted=$(find . -path ./internal/analysis/testdata -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go vet, GOARCH=arm64: the Go-loop kernels"
# internal/nn's training kernels are AVX assembly on amd64 CPUs with
# AVX and the Go reference loops everywhere else, amd64 CPUs without AVX
# included. Vet the packages for arm64 too, so the build without any
# assembly (kernel_other.go) keeps compiling although this host never
# makes it.
GOARCH=arm64 go vet ./internal/nn ./internal/rl

echo "== ermvet -checks all ./..."
go run ./cmd/ermvet -checks all ./...

echo "== allocation gate: allocation tests without -race"
# The steady-state allocation tests skip themselves under -race, which
# perturbs allocation counts, so the race suite below never gates them:
# columnar Evaluate and the condition kernels, repair's applyRule, a warm
# DQN training step and greedy action selection, the coordinator's
# response splice, and the lattice step both miners take (two
# allocations a child). Run them here without it. A test that did not
# run (renamed, or skipped) fails the gate like one that failed.
alloc_tests="TestEvaluateZeroAlloc TestApplyRuleZeroAllocSteadyState TestTrainStepZeroAlloc TestSelectActionZeroAlloc TestSpliceAllocsFlat TestRefineAllocs"
if ! alloc_out=$(go test -v -run "^($(echo $alloc_tests | tr ' ' '|'))\$" \
    ./internal/measure ./internal/repair ./internal/rl ./internal/cluster ./internal/core 2>&1); then
    echo "$alloc_out" >&2
    exit 1
fi
for t in $alloc_tests; do
    if ! echo "$alloc_out" | grep -q "^--- PASS: $t "; then
        echo "allocation gate: $t did not run" >&2
        exit 1
    fi
done

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
# -shuffle=on randomizes test and subtest order: an inter-test ordering
# dependency (state leaking through a package-level variable, a test
# relying on an earlier test's side effect) fails here instead of
# surfacing as CI flakiness later. The seed is logged on failure for
# reproduction.
go test -race -shuffle=on ./...

echo "== bench module: go vet + go test"
# bench/ (ermbench) is a module of its own that builds against this one
# through a replace directive, so the root ./... patterns never reach
# it: a change that removes an API it uses would otherwise pass every
# gate above and break the benchmark.
(cd bench && go vet ./... && go test ./...)

echo "== checkpoint kill-resume smoke"
# Kill an RLMiner run mid-training (injected exit 3), resume it from its
# checkpoint, and require the exported rules to be byte-identical to an
# uninterrupted run: the crash-safety contract, end to end through the
# CLI.
ckdir=$(mktemp -d)
trap 'rm -rf "$ckdir"' EXIT
go build -o "$ckdir/erminer-bin" ./cmd/erminer
miner_flags="-dataset covid -method rlminer -input 400 -steps 200 -seed 3 -k 10 -repair=false"
set +e
"$ckdir/erminer-bin" $miner_flags \
    -checkpoint-dir "$ckdir" -checkpoint-every-steps 50 -crash-at-step 120 \
    -export-rules "$ckdir/ignored.json" >/dev/null
status=$?
set -e
if [ "$status" -ne 3 ]; then
    echo "smoke: injected crash expected exit 3, got $status" >&2
    exit 1
fi
if [ ! -f "$ckdir/erminer.ckpt" ]; then
    echo "smoke: killed run left no checkpoint behind" >&2
    exit 1
fi
# Logged to a file, not piped: grep -q would close the pipe on first
# match and SIGPIPE the miner mid-run.
"$ckdir/erminer-bin" $miner_flags \
    -checkpoint-dir "$ckdir" -export-rules "$ckdir/resumed.json" > "$ckdir/resume.log"
grep -q "resuming from checkpoint" "$ckdir/resume.log"
"$ckdir/erminer-bin" $miner_flags -export-rules "$ckdir/fresh.json" >/dev/null
cmp "$ckdir/resumed.json" "$ckdir/fresh.json"
if [ -f "$ckdir/erminer.ckpt" ]; then
    echo "smoke: completed run did not remove its checkpoint" >&2
    exit 1
fi

echo "== cluster chaos smoke"
# Coordinator + 2 worker processes on loopback: merged responses must be
# byte-identical to a single node, before and after one worker is
# SIGKILLed mid-batch-loop (see scripts/cluster_smoke.sh).
sh scripts/cluster_smoke.sh

echo "== data patch smoke"
# PATCH /v1/data on a live daemon, then require its repairs to match a
# fresh daemon started from CSVs already containing the delta (see
# scripts/patch_smoke.sh).
sh scripts/patch_smoke.sh

echo "check: OK"
