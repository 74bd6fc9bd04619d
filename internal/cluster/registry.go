package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"erminer/internal/serve"
)

// WorkerStatus is one worker's last observed health, as reported by the
// coordinator's /healthz.
type WorkerStatus struct {
	URL          string `json:"url"`
	Alive        bool   `json:"alive"`
	RulesETag    string `json:"rules_etag,omitempty"`
	RulesVersion int64  `json:"rules_version"`
	LastError    string `json:"last_error,omitempty"`
}

// registry tracks per-worker liveness and rule-generation identity. It
// is written by the health checker and by dispatch failures, read by
// the fanout path (to pick hedge targets) and by /healthz and /metrics.
type registry struct {
	mu     sync.Mutex
	states []WorkerStatus // guarded by mu
}

// newRegistry starts every worker optimistically alive so the first
// request does not stall behind a health-check round; a dead worker is
// discovered by its first failed dispatch at the latest.
func newRegistry(workers []string) *registry {
	states := make([]WorkerStatus, len(workers))
	for i, w := range workers {
		states[i] = WorkerStatus{URL: w, Alive: true}
	}
	return &registry{states: states}
}

func (r *registry) snapshot() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerStatus, len(r.states))
	copy(out, r.states)
	return out
}

func (r *registry) markAlive(i int, etag string, version int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[i] = WorkerStatus{URL: r.states[i].URL, Alive: true, RulesETag: etag, RulesVersion: version}
}

func (r *registry) markDead(i int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[i].Alive = false
	if err != nil {
		r.states[i].LastError = err.Error()
	}
}

func (r *registry) alive(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.states[i].Alive
}

func (r *registry) healthyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.states {
		if s.Alive {
			n++
		}
	}
	return n
}

// generationSkew reports how many distinct non-empty rule generations
// the live part of the fleet is running; anything above 1 means a rule
// push is in flight or has partially failed, or a worker came back on
// other rules. Dead workers are excluded, so an outage alone does not
// hold the skew alarm up. Nothing restages a worker when it recovers:
// one restarted from its startup -rules file is marked alive on that
// old generation, dispatch still sends it the sub-batches pinned to it
// (a batch that lands only there is answered under the old rules, one
// that also lands on a current worker fails the merge with 502), and
// the skew stays above 1 until the next push.
func (r *registry) generationSkew() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	distinct := 0
	for i, s := range r.states {
		if !s.Alive || s.RulesETag == "" {
			continue
		}
		dup := false
		for _, prev := range r.states[:i] {
			if prev.Alive && prev.RulesETag == s.RulesETag {
				dup = true
				break
			}
		}
		if !dup {
			distinct++
		}
	}
	return distinct
}

// checkAll probes every worker's /healthz once, sequentially (the fleet
// is small and the probe timeout short; one slow worker delaying the
// others' freshness by a probe period is acceptable). The background
// loop calls it on a ticker; tests call it directly.
func (c *Coordinator) checkAll() {
	for i := range c.workers {
		c.checkWorker(i)
	}
	c.metrics.healthChecks.Add(1)
}

func (c *Coordinator) checkWorker(i int) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.perWorkerTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.workers[i]+serve.PathHealthz, nil)
	if err != nil {
		c.reg.markDead(i, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.reg.markDead(i, err)
		return
	}
	//ermvet:ignore errdrop nothing to do about a close error on a drained health-check body
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		c.reg.markDead(i, err)
		return
	}
	// The worker's full wire shape is decoded (not a local projection):
	// json.Unmarshal stays loose about extra fields, so a worker a minor
	// version ahead still health-checks.
	var h serve.HealthResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &h) != nil || h.Status != "ok" {
		c.reg.markDead(i, fmt.Errorf("healthz answered HTTP %d status %q", resp.StatusCode, h.Status))
		return
	}
	c.reg.markAlive(i, h.RulesETag, h.RulesVersion)
}
