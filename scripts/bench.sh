#!/bin/sh
# bench.sh — record the benchmark baselines into BENCH_hotpath.json,
# BENCH_parallel.json and BENCH_delta.json.
#
# Runs the evaluation hot-path benchmarks — BenchmarkEvaluate in
# bench_test.go and BenchmarkRepairThroughput in internal/serve — and
# rewrites BENCH_hotpath.json from their output (ns/op, allocs/op,
# req/s, p99_ms). It then runs the parallel-frontier benchmark
# (BenchmarkEnuMinerParallel) and rewrites BENCH_parallel.json. Run it
# on a quiet machine after touching internal/measure or the parallel
# frontier and commit the results. CI does not run this script; it runs
# the hot-path benchmarks at -benchtime=1x as a smoke and gates on
# TestEvaluateZeroAlloc instead (see .github/workflows/ci.yml).
#
# BENCHTIME=5s ./scripts/bench.sh  to trade time for tighter numbers.
# BENCH_ONLY=delta ./scripts/bench.sh  re-records only BENCH_delta.json
# (after touching the delta-maintenance layer without moving the hot
# path).
set -eu

cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2s}"
out=BENCH_hotpath.json
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# metric <benchmark name> <unit> — pull one value out of the raw
# `go test -bench` output. Benchmark lines interleave values with their
# units (`5043 ns/op  0 B/op  0 allocs/op  2604 req/s`), so scan
# pairwise rather than assuming column positions.
metric() {
    awk -v name="$1" -v unit="$2" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            for (i = 2; i < NF; i++) if ($(i+1) == unit) { print $i; exit }
        }' "$raw"
}

# record_delta runs BenchmarkApplyDelta/{patched,rebuild} — absorbing a
# cell update by patching the caches through the relation change log
# versus rebuilding them from scratch — and rewrites BENCH_delta.json.
record_delta() {
    echo "== go test -bench BenchmarkApplyDelta ./internal/measure (-benchtime $benchtime)" >&2
    go test -run '^$' -bench 'BenchmarkApplyDelta$' -benchmem -benchtime "$benchtime" ./internal/measure | tee -a "$raw" >&2

    ad_p_ns=$(metric 'BenchmarkApplyDelta/patched' 'ns/op')
    ad_p_allocs=$(metric 'BenchmarkApplyDelta/patched' 'allocs/op')
    ad_p_iters=$(awk '$1 ~ "^BenchmarkApplyDelta/patched(-[0-9]+)?$" { print $2; exit }' "$raw")
    ad_r_ns=$(metric 'BenchmarkApplyDelta/rebuild' 'ns/op')
    ad_r_allocs=$(metric 'BenchmarkApplyDelta/rebuild' 'allocs/op')
    ad_r_iters=$(awk '$1 ~ "^BenchmarkApplyDelta/rebuild(-[0-9]+)?$" { print $2; exit }' "$raw")
    for v in "$ad_p_ns" "$ad_p_allocs" "$ad_r_ns" "$ad_r_allocs"; do
        if [ -z "$v" ]; then
            echo "bench.sh: failed to parse a delta-benchmark metric" >&2
            exit 1
        fi
    done
    ad_speedup=$(awk -v r="$ad_r_ns" -v p="$ad_p_ns" 'BEGIN { printf "%.1f", r / p }')
    dcpu=$(awk -F': ' '/^cpu:/ { print $2; exit }' "$raw")

    cat > BENCH_delta.json <<EOF
{
  "description": "Baseline for delta maintenance (DESIGN.md decision 19). Each iteration applies a one-cell update delta to the guard column of a 4000-row synthetic input and re-evaluates the full synthRules set. The patched subbench absorbs the delta through Relation.ApplyDelta plus change-log patching in ColumnIndex/IndexCache, keeping untouched posting lists, group projections and master indexes; the rebuild subbench discards every cache after the delta, which is what a version bump cost before the patch-don't-drop layer. patched_speedup_over_rebuild must stay > 1 — if it regresses, incremental maintenance has stopped paying for itself.",
  "recorded": "$(date +%Y-%m-%d)",
  "recorded_with": "scripts/bench.sh (benchtime $benchtime)",
  "host": {
    "go": "$(go version | awk '{print $3}')",
    "goos": "$(go env GOOS)",
    "goarch": "$(go env GOARCH)",
    "cpu": "${dcpu:-unknown}",
    "cores": $(nproc)
  },
  "benchmarks": {
    "BenchmarkApplyDelta/patched": {
      "dataset": "synth 4000x4000, one-cell guard update per op, 12 rules re-evaluated",
      "iterations": ${ad_p_iters:-0},
      "ns_per_op": $ad_p_ns,
      "allocs_per_op": $ad_p_allocs
    },
    "BenchmarkApplyDelta/rebuild": {
      "dataset": "synth 4000x4000, one-cell guard update per op, 12 rules re-evaluated",
      "iterations": ${ad_r_iters:-0},
      "ns_per_op": $ad_r_ns,
      "allocs_per_op": $ad_r_allocs
    }
  },
  "patched_speedup_over_rebuild": $ad_speedup
}
EOF

    echo "wrote BENCH_delta.json (patched ${ad_p_ns} ns/op vs rebuild ${ad_r_ns} ns/op; ${ad_speedup}x)" >&2
}

if [ "${BENCH_ONLY:-all}" = "delta" ]; then
    record_delta
    exit 0
fi

echo "== go test -bench BenchmarkEvaluate (-benchtime $benchtime)" >&2
go test -run '^$' -bench 'BenchmarkEvaluate$' -benchmem -benchtime "$benchtime" . | tee -a "$raw" >&2

echo "== go test -bench BenchmarkRepairThroughput ./internal/serve" >&2
go test -run '^$' -bench 'BenchmarkRepairThroughput$' -benchmem -benchtime "$benchtime" ./internal/serve | tee -a "$raw" >&2

ev_ns=$(metric 'BenchmarkEvaluate' 'ns/op')
ev_allocs=$(metric 'BenchmarkEvaluate' 'allocs/op')
ev_iters=$(awk '$1 ~ "^BenchmarkEvaluate(-[0-9]+)?$" { print $2; exit }' "$raw")
rt_ns=$(metric 'BenchmarkRepairThroughput' 'ns/op')
rt_allocs=$(metric 'BenchmarkRepairThroughput' 'allocs/op')
rt_rps=$(metric 'BenchmarkRepairThroughput' 'req/s')
rt_p99=$(metric 'BenchmarkRepairThroughput' 'p99_ms')

for v in "$ev_ns" "$ev_allocs" "$rt_ns" "$rt_rps" "$rt_p99"; do
    if [ -z "$v" ]; then
        echo "bench.sh: failed to parse a metric out of the benchmark output" >&2
        exit 1
    fi
done
cpu=$(awk -F': ' '/^cpu:/ { print $2; exit }' "$raw")

cat > "$out" <<EOF
{
  "description": "Baseline for the columnar posting-list evaluation engine (DESIGN.md decision 16). BenchmarkEvaluate is the steady-state rule-evaluation hot path shared by both miners and the serving layer: warm posting lists, dense group-id projection, recycled cover buffer; its allocs_per_op must be 0 (CI gates on TestEvaluateZeroAlloc and the scripts/check.sh cross-check). BenchmarkRepairThroughput drives the erminerd POST /v1/repair handler end to end; its allocations are request-path JSON and relation building, not evaluation.",
  "recorded": "$(date +%Y-%m-%d)",
  "recorded_with": "scripts/bench.sh (benchtime $benchtime)",
  "host": {
    "go": "$(go version | awk '{print $3}')",
    "goos": "$(go env GOOS)",
    "goarch": "$(go env GOARCH)",
    "cpu": "${cpu:-unknown}",
    "cores": $(nproc)
  },
  "benchmarks": {
    "BenchmarkEvaluate": {
      "dataset": "covid 2500x1824, city+confirmed_date -> infection_case, full scan",
      "iterations": ${ev_iters:-0},
      "ns_per_op": $ev_ns,
      "allocs_per_op": $ev_allocs
    },
    "BenchmarkRepairThroughput": {
      "dataset": "district/area -> postcode 1200x1200, 64-tuple batches, 2 rules",
      "ns_per_op": $rt_ns,
      "allocs_per_op": $rt_allocs,
      "req_per_s": $rt_rps,
      "p99_ms": $rt_p99
    }
  }
}
EOF

echo "wrote $out (Evaluate ${ev_ns} ns/op, ${ev_allocs} allocs/op; serve ${rt_rps} req/s, p99 ${rt_p99} ms)" >&2

echo "== go test -bench EnuMinerParallel (-benchtime $benchtime)" >&2
go test -run '^$' -bench 'BenchmarkEnuMinerParallel$' -benchtime "$benchtime" . | tee -a "$raw" >&2

em_ns=$(metric 'BenchmarkEnuMinerParallel' 'ns/op')
em_speedup=$(metric 'BenchmarkEnuMinerParallel' 'speedup')
em_iters=$(awk '$1 ~ "^BenchmarkEnuMinerParallel(-[0-9]+)?$" { print $2; exit }' "$raw")

for v in "$em_ns" "$em_speedup"; do
    if [ -z "$v" ]; then
        echo "bench.sh: failed to parse a parallel-benchmark metric" >&2
        exit 1
    fi
done

pout=BENCH_parallel.json
cat > "$pout" <<EOF
{
  "description": "Baseline for the parallel EnuMiner frontier (BenchmarkEnuMinerParallel in bench_test.go). The speedup metric is serial-walk (Parallelism 1) wall clock divided by all-CPU wall clock on the same problem; serial and parallel results are verified bit-identical (TestParallelMineDeterminism, TestParallelCapDeterminism).",
  "recorded": "$(date +%Y-%m-%d)",
  "recorded_with": "scripts/bench.sh (benchtime $benchtime)",
  "host": {
    "go": "$(go version | awk '{print $3}')",
    "goos": "$(go env GOOS)",
    "goarch": "$(go env GOARCH)",
    "cpu": "${cpu:-unknown}",
    "cores": $(nproc)
  },
  "benchmarks": {
    "BenchmarkEnuMinerParallel": {
      "dataset": "covid 2500x1824, EnuMinerH3, ~7242 candidates",
      "iterations": ${em_iters:-0},
      "ns_per_op": $em_ns,
      "speedup": $em_speedup,
      "cpus": $(nproc)
    }
  }
}
EOF

echo "wrote $pout (enuminer ${em_ns} ns/op speedup ${em_speedup})" >&2

record_delta
