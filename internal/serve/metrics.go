package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	obs "erminer/internal/metrics"
)

// The daemon's metric names. Every name is a const (not an inline
// Fprintf literal) so the ermvet wiredrift check can pin the full set
// in its golden manifest: renaming or dropping a line here without
// regenerating the manifest (ermvet -update) fails the build, the same
// way a wire shape cannot drift without a version bump.
const (
	metricUptimeSeconds       = "erminerd_uptime_seconds"
	metricRequestsTotal       = "erminerd_requests_total"
	metricInFlight            = "erminerd_requests_in_flight"
	metricInFlightRepair      = "erminerd_requests_in_flight_repair"
	metricInFlightValidate    = "erminerd_requests_in_flight_validate"
	metricQueueDepth          = "erminerd_queue_depth"
	metricRejectedTotal       = "erminerd_rejected_total"
	metricTimeoutsTotal       = "erminerd_timeouts_total"
	metricTuplesTotal         = "erminerd_tuples_total"
	metricRepairsAppliedTotal = "erminerd_repairs_applied_total"
	metricIndexBuildsTotal    = "erminerd_index_builds_total"
	metricRulesActive         = "erminerd_rules_active"
	metricRulesVersion        = "erminerd_rules_version"
	metricRuleSwapsTotal      = "erminerd_rule_swaps_total"
	metricRulesStagedTotal    = "erminerd_rules_staged_total"
	metricDataPatchesTotal    = "erminerd_data_patches_total"
	metricJobsQueued          = "erminerd_jobs_queued"
	metricJobsRunning         = "erminerd_jobs_running"
	metricJobsDoneTotal       = "erminerd_jobs_done_total"
	metricJobsFailedTotal     = "erminerd_jobs_failed_total"
	metricJobsRecoveredTotal  = "erminerd_jobs_recovered_total"
	metricRepairLatencyCount  = "erminerd_repair_latency_count"
	metricRepairLatencyP50    = "erminerd_repair_latency_p50_ms"
	metricRepairLatencyP99    = "erminerd_repair_latency_p99_ms"
)

// metrics holds the daemon's plain-text counters. Hot-path updates are
// atomic; only the latency ring takes a lock (one short critical section
// per request and per scrape).
type metrics struct {
	start time.Time

	requestsTotal    atomic.Int64 // every HTTP request received
	rejectedTotal    atomic.Int64 // 429s from the bounded queue
	timeoutsTotal    atomic.Int64 // requests cut off by the per-request timeout
	inFlight         atomic.Int64 // repair/validate requests holding a worker slot
	inFlightRepair   atomic.Int64 // POST /v1/repair requests currently inside the handler
	inFlightValidate atomic.Int64 // POST /v1/validate requests currently inside the handler
	queueDepth       atomic.Int64 // repair/validate requests waiting for a slot
	repairsApplied   atomic.Int64 // cells changed by POST /v1/repair
	tuplesSeen       atomic.Int64 // tuples received across repair+validate
	indexBuilds      atomic.Int64 // master indexes built (cache misses) on the serving path
	ruleSwaps        atomic.Int64 // successful rule-set activations
	rulesStaged      atomic.Int64 // generations parked by POST /v1/rules/stage
	dataPatches      atomic.Int64 // deltas applied by PATCH /v1/data
	jobsDone         atomic.Int64
	jobsFailed       atomic.Int64
	jobsRecovered    atomic.Int64 // jobs resumed from checkpoints at startup

	lat obs.LatencyRing // the shared p50/p99 window estimator
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

func (m *metrics) observeLatency(d time.Duration) {
	m.lat.Observe(d)
}

// write renders the counters in a flat `name value` text format (one
// metric per line, Prometheus-parsable as untyped gauges).
func (m *metrics) write(w io.Writer, rulesActive int, rulesVersion int64, jobsQueued, jobsRunning int) {
	p50, p99, latCount := m.lat.Percentiles()
	fmt.Fprintf(w, "%s %.0f\n", metricUptimeSeconds, time.Since(m.start).Seconds())
	fmt.Fprintf(w, "%s %d\n", metricRequestsTotal, m.requestsTotal.Load())
	fmt.Fprintf(w, "%s %d\n", metricInFlight, m.inFlight.Load())
	fmt.Fprintf(w, "%s %d\n", metricInFlightRepair, m.inFlightRepair.Load())
	fmt.Fprintf(w, "%s %d\n", metricInFlightValidate, m.inFlightValidate.Load())
	fmt.Fprintf(w, "%s %d\n", metricQueueDepth, m.queueDepth.Load())
	fmt.Fprintf(w, "%s %d\n", metricRejectedTotal, m.rejectedTotal.Load())
	fmt.Fprintf(w, "%s %d\n", metricTimeoutsTotal, m.timeoutsTotal.Load())
	fmt.Fprintf(w, "%s %d\n", metricTuplesTotal, m.tuplesSeen.Load())
	fmt.Fprintf(w, "%s %d\n", metricRepairsAppliedTotal, m.repairsApplied.Load())
	fmt.Fprintf(w, "%s %d\n", metricIndexBuildsTotal, m.indexBuilds.Load())
	fmt.Fprintf(w, "%s %d\n", metricRulesActive, rulesActive)
	fmt.Fprintf(w, "%s %d\n", metricRulesVersion, rulesVersion)
	fmt.Fprintf(w, "%s %d\n", metricRuleSwapsTotal, m.ruleSwaps.Load())
	fmt.Fprintf(w, "%s %d\n", metricRulesStagedTotal, m.rulesStaged.Load())
	fmt.Fprintf(w, "%s %d\n", metricDataPatchesTotal, m.dataPatches.Load())
	fmt.Fprintf(w, "%s %d\n", metricJobsQueued, jobsQueued)
	fmt.Fprintf(w, "%s %d\n", metricJobsRunning, jobsRunning)
	fmt.Fprintf(w, "%s %d\n", metricJobsDoneTotal, m.jobsDone.Load())
	fmt.Fprintf(w, "%s %d\n", metricJobsFailedTotal, m.jobsFailed.Load())
	fmt.Fprintf(w, "%s %d\n", metricJobsRecoveredTotal, m.jobsRecovered.Load())
	// latency_count tallies every repair/validate outcome — 4xx, 429s
	// and timeouts included — so the percentile lines above can be read
	// against the real request population, not just the successes.
	fmt.Fprintf(w, "%s %d\n", metricRepairLatencyCount, latCount)
	fmt.Fprintf(w, "%s %.3f\n", metricRepairLatencyP50, p50)
	fmt.Fprintf(w, "%s %.3f\n", metricRepairLatencyP99, p99)
}
