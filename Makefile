# Developer entry points. `make check` is the gate every change must
# pass: gofmt + vet + ermvet (the repo's own static-analysis pass, see
# README "Static analysis") + build (all packages, including cmd/erminer
# and cmd/erminerd) + race-enabled tests (see scripts/check.sh).

.PHONY: check lint fuzz test bench bench-baseline build serve

check:
	./scripts/check.sh

# The ermvet pass alone: every repo-specific determinism, concurrency
# and wire-format check over every non-test package, as newline-
# delimited JSON (suppressed findings included, for CI's step summary).
lint:
	go run ./cmd/ermvet -checks all -json ./...

# Short fuzz smoke over the three byte-parsing surfaces: the CSV
# ingestion path, the rules JSON import, and the coordinator's splice
# of worker response bytes (held to the old decode-merge-encode).
# CI-friendly 5s per target; raise -fuzztime locally for a real hunt.
fuzz:
	go test -run '^$$' -fuzz FuzzReadCSV -fuzztime 5s .
	go test -run '^$$' -fuzz FuzzImportRules -fuzztime 5s ./internal/rulesio
	go test -run '^$$' -fuzz FuzzSplice -fuzztime 5s ./internal/cluster

build:
	go build ./...

# Build and run the rule-serving daemon on the covid benchmark, mining
# an initial rule set at startup. See README "Serving" for the curl
# walkthrough against it.
serve:
	go build -o bin/erminerd ./cmd/erminerd
	./bin/erminerd -dataset covid -noise 0.1 -mine enuminerh3

test:
	go test ./...

# The paper-artifact benchmarks plus the micro-benchmarks in
# bench_test.go (BenchmarkEnuMinerParallel reports its speedup over the
# serial walk; baselines in BENCH_hotpath.json and BENCH_parallel.json).
bench:
	go test -run XXX -bench . -benchmem .

# Re-record the micro-benchmark baselines: BenchmarkEvaluate and the
# serve-layer BenchmarkRepairThroughput (BENCH_hotpath.json),
# BenchmarkEnuMinerParallel (BENCH_parallel.json) and
# BenchmarkApplyDelta (BENCH_delta.json). See README "Performance".
bench-baseline:
	./scripts/bench.sh
