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

# Short fuzz smoke over eight targets: five byte-parsing surfaces (the
# CSV ingestion path, the rules JSON import, the coordinator's splice
# of worker response bytes, held to the old decode-merge-encode, and
# the daemon's repair/validate and PATCH /v1/data request decoders),
# the evaluation engine's two differential fuzzers, which hold the
# columnar engine and its delta-patched caches to the row-at-a-time
# oracle, and FuzzKernels, which holds the network's AVX training
# kernels to their Go loops bit for bit. CI-friendly 5s per target;
# raise -fuzztime locally for a real hunt.
fuzz:
	go test -run '^$$' -fuzz FuzzReadCSV -fuzztime 5s .
	go test -run '^$$' -fuzz FuzzImportRules -fuzztime 5s ./internal/rulesio
	go test -run '^$$' -fuzz FuzzSplice -fuzztime 5s ./internal/cluster
	go test -run '^$$' -fuzz FuzzRepairRequest -fuzztime 5s ./internal/serve
	go test -run '^$$' -fuzz FuzzDataPatch -fuzztime 5s ./internal/serve
	go test -run '^$$' -fuzz FuzzEvaluateColumnar -fuzztime 5s ./internal/measure
	go test -run '^$$' -fuzz FuzzApplyDelta -fuzztime 5s ./internal/measure
	go test -run '^$$' -fuzz FuzzKernels -fuzztime 5s ./internal/nn

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
# bench_test.go (BenchmarkEnuMinerParallel reports the speedup of all
# CPUs over one worker; baselines in BENCH_hotpath.json and
# BENCH_parallel.json).
bench:
	go test -run XXX -bench . -benchmem .

# Re-record the micro-benchmark baselines: BenchmarkEvaluate and the
# serve-layer BenchmarkRepairThroughput (BENCH_hotpath.json),
# BenchmarkEnuMinerParallel (BENCH_parallel.json) and
# BenchmarkApplyDelta (BENCH_delta.json). See README "Performance".
bench-baseline:
	./scripts/bench.sh
