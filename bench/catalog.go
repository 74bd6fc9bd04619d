package main

import (
	"fmt"
	"time"

	"erminer/internal/serve"
)

// kind is what a workload drives.
type kind int

const (
	kindMineRL kind = iota
	kindMineEnum
	kindServe
)

// workload is one set of inputs the benchmark runs. Why each exists is
// recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	kind kind

	// Serving workloads: the endpoint, the tuples per request, whether
	// fixes carry their evidence, and the frozen open-loop rate. Rates
	// are set once to about a third of the capacity measured on the
	// reference host (see README) and never derived from a run, so two
	// commits are always offered the same load.
	path    string
	batch   int
	explain bool
	rate    float64
	// patchEvery makes every patchEvery-th request a PATCH /v1/data on
	// the master relation (0 = no patches).
	patchEvery int
	// clusterWorkers > 0 serves through an erminerd coordinator fronting
	// that many worker daemons.
	clusterWorkers int
}

// The benchmark's workloads. The problem is always the covid dataset at
// bench scale (see inputs.go); only the traffic differs.
var workloads = []workload{
	{name: "mine-rl", kind: kindMineRL},
	{name: "mine-enum", kind: kindMineEnum},
	{name: "repair-explain", kind: kindServe, path: serve.PathRepair, batch: 64, explain: true, rate: 90},
	{name: "validate-bulk", kind: kindServe, path: serve.PathValidate, batch: 512, rate: 95},
	{name: "repair-patch", kind: kindServe, path: serve.PathRepair, batch: 64, explain: true, rate: 85, patchEvery: 24},
	{name: "cluster-repair", kind: kindServe, path: serve.PathRepair, batch: 64, explain: true, rate: 33, clusterWorkers: 2},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Mining budgets. RLMiner trains for rlSteps per mine: the paper's 5000
// steps take ~4.5 s on the reference host, too few mines per run for a
// stable median, while 2000 steps already reach the top-50 on this
// problem. The per-run mine counts follow from the run length and these
// nominal mine times.
const (
	rlSteps       = 2000
	rlMineNominal = 1500 * time.Millisecond
	enumNominal   = 100 * time.Millisecond
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"latency_p50_ms", "ms", false},
	{"latency_tail_ms", "ms", false},
	{"throughput_per_s", "1/s", true},
	{"cpu_ms_per_op", "ms", false},
	{"peak_rss_mb", "MiB", false},
	{"quality_f1", "ratio", true},
}

// perLayer are the traced run's metrics, named <layer>.<quantity> after
// the module that does the work. Every workload reports every one; a
// layer a workload never enters reads 0, which is the prediction for
// that pairing. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayer = []metricDef{
	{"load.sent", "count", false},
	{"load.failed", "count", false},
	{"load.late_tail_ms", "ms", false},
	{"load.patch_p50_ms", "ms", false},
	{"load.patch_tail_ms", "ms", false},
	{"load.lat_tail_after_patch_ms", "ms", false},

	{"serve.decode_us", "us", false},
	{"serve.decode_allocs", "count", false},
	{"serve.classify_us", "us", false},
	{"serve.encode_us", "us", false},
	{"serve.encode_bytes", "B", false},
	{"serve.encode_allocs", "count", false},
	{"serve.handler_us", "us", false},
	{"serve.rejected", "count", false},
	{"serve.timeouts", "count", false},

	{"relation.build_us", "us", false},
	{"relation.build_allocs", "count", false},
	{"relation.apply_delta_us", "us", false},

	{"repair.apply_us", "us", false},
	{"repair.apply_allocs", "count", false},
	{"repair.explain_us", "us", false},
	{"repair.explain_allocs", "count", false},
	{"repair.fixes_per_req", "count", false},
	{"repair.revalidate_us", "us", false},
	{"repair.revalidated", "count", false},
	{"repair.dropped", "count", false},

	{"rule.render_us", "us", false},
	{"rule.render_calls", "count", false},
	{"rule.render_distinct_frac", "ratio", true},

	{"measure.evaluations", "count", false},
	{"measure.index_builds", "count", false},
	{"measure.tuples_scanned", "count", false},
	{"measure.patch_us", "us", false},

	{"enuminer.explored", "count", false},
	{"enuminer.us_per_candidate", "us", false},

	{"mdp.step_us", "us", false},
	{"mdp.reset_us", "us", false},
	{"mdp.steps", "count", false},
	{"mdp.episodes", "count", false},
	{"mdp.reward_cache_hit_frac", "ratio", true},
	{"rl.select_us", "us", false},
	{"rl.observe_us", "us", false},
	{"rl.train_us", "us", false},
	{"rlminer.infer_ms", "ms", false},
	{"core.select_topk_us", "us", false},

	{"cluster.subbatches_per_req", "count", false},
	{"cluster.worker_us", "us", false},
	{"cluster.fanout_us", "us", false},
	{"cluster.coord_self_us", "us", false},
	{"cluster.retries", "count", false},
	{"cluster.redispatches", "count", false},

	{"runtime.allocs_per_op", "count", false},
	{"runtime.bytes_per_op", "B", false},
	{"runtime.gc_cpu_frac", "ratio", false},

	{"trace.overhead_frac", "ratio", false},
	{"trace.attribution_gap", "ratio", false},
}
