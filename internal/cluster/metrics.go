package cluster

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	obs "erminer/internal/metrics"
)

// The coordinator's metric names, exported under the ermcluster_ prefix
// in the same flat `name value` text format as the workers' erminerd_
// metrics, so one scraper config covers both roles. As in the worker
// daemon, every name is a const pinned by the ermvet wiredrift
// manifest: a rename or drop without regenerating it (ermvet -update)
// fails the build.
const (
	metricUptimeSeconds       = "ermcluster_uptime_seconds"
	metricRequestsTotal       = "ermcluster_requests_total"
	metricInFlightRepair      = "ermcluster_requests_in_flight_repair"
	metricInFlightValidate    = "ermcluster_requests_in_flight_validate"
	metricTuplesTotal         = "ermcluster_tuples_total"
	metricRepairsAppliedTotal = "ermcluster_repairs_applied_total"
	metricWorkersTotal        = "ermcluster_workers_total"
	metricWorkersHealthy      = "ermcluster_workers_healthy"
	metricGenerationSkew      = "ermcluster_generation_skew"
	metricSubbatchesTotal     = "ermcluster_subbatches_total"
	metricRetriesTotal        = "ermcluster_retries_total"
	metricRedispatchesTotal   = "ermcluster_redispatches_total"
	metricWorkerFailuresTotal = "ermcluster_worker_failures_total"
	metricRulePushesTotal     = "ermcluster_rule_pushes_total"
	metricDataPatchesTotal    = "ermcluster_data_patches_total"
	metricRulesGeneration     = "ermcluster_rules_generation"
	metricHealthChecksTotal   = "ermcluster_health_checks_total"
	metricRepairLatencyCount  = "ermcluster_repair_latency_count"
	metricRepairLatencyP50    = "ermcluster_repair_latency_p50_ms"
	metricRepairLatencyP99    = "ermcluster_repair_latency_p99_ms"
)

// metrics holds the coordinator's counters.
type metrics struct {
	start        time.Time
	workersTotal int

	requestsTotal    atomic.Int64 // every HTTP request received
	inFlightRepair   atomic.Int64 // POST /v1/repair requests inside the handler
	inFlightValidate atomic.Int64 // POST /v1/validate requests inside the handler
	tuplesSeen       atomic.Int64 // tuples received across repair+validate
	repairsApplied   atomic.Int64 // cells changed across the merged responses
	subbatchesTotal  atomic.Int64 // sub-batches dispatched to workers
	retriesTotal     atomic.Int64 // same-worker retry attempts
	redispatches     atomic.Int64 // sub-batches hedged to a different worker
	workerFailures   atomic.Int64 // workers marked dead by the dispatch path
	rulePushes       atomic.Int64 // successful two-phase rule pushes
	dataPatches      atomic.Int64 // data deltas replicated to the fleet
	healthChecks     atomic.Int64 // completed health-check rounds

	lat obs.LatencyRing // the shared p50/p99 window estimator
}

func newMetrics(workers int) *metrics {
	return &metrics{start: time.Now(), workersTotal: workers}
}

func (m *metrics) observeLatency(d time.Duration) {
	m.lat.Observe(d)
}

func (m *metrics) write(w io.Writer, healthy, skew int, generation int64) {
	p50, p99, latCount := m.lat.Percentiles()
	fmt.Fprintf(w, "%s %.0f\n", metricUptimeSeconds, time.Since(m.start).Seconds())
	fmt.Fprintf(w, "%s %d\n", metricRequestsTotal, m.requestsTotal.Load())
	fmt.Fprintf(w, "%s %d\n", metricInFlightRepair, m.inFlightRepair.Load())
	fmt.Fprintf(w, "%s %d\n", metricInFlightValidate, m.inFlightValidate.Load())
	fmt.Fprintf(w, "%s %d\n", metricTuplesTotal, m.tuplesSeen.Load())
	fmt.Fprintf(w, "%s %d\n", metricRepairsAppliedTotal, m.repairsApplied.Load())
	fmt.Fprintf(w, "%s %d\n", metricWorkersTotal, m.workersTotal)
	fmt.Fprintf(w, "%s %d\n", metricWorkersHealthy, healthy)
	fmt.Fprintf(w, "%s %d\n", metricGenerationSkew, skew)
	fmt.Fprintf(w, "%s %d\n", metricSubbatchesTotal, m.subbatchesTotal.Load())
	fmt.Fprintf(w, "%s %d\n", metricRetriesTotal, m.retriesTotal.Load())
	fmt.Fprintf(w, "%s %d\n", metricRedispatchesTotal, m.redispatches.Load())
	fmt.Fprintf(w, "%s %d\n", metricWorkerFailuresTotal, m.workerFailures.Load())
	fmt.Fprintf(w, "%s %d\n", metricRulePushesTotal, m.rulePushes.Load())
	fmt.Fprintf(w, "%s %d\n", metricDataPatchesTotal, m.dataPatches.Load())
	fmt.Fprintf(w, "%s %d\n", metricRulesGeneration, generation)
	fmt.Fprintf(w, "%s %d\n", metricHealthChecksTotal, m.healthChecks.Load())
	// As on the workers: every outcome is counted, so the percentiles can
	// be read against the true request population.
	fmt.Fprintf(w, "%s %d\n", metricRepairLatencyCount, latCount)
	fmt.Fprintf(w, "%s %.3f\n", metricRepairLatencyP50, p50)
	fmt.Fprintf(w, "%s %.3f\n", metricRepairLatencyP99, p99)
}
