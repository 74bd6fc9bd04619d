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
// is written by the health checker, by fleet-wide pushes and by
// dispatch failures, read by the fanout path (to pick the workers a
// sub-batch may go to) and by /healthz and /metrics.
type registry struct {
	mu     sync.Mutex
	states []WorkerStatus // guarded by mu
	// active is the rules etag of the activated generation: the one a
	// fleet-wide push (PUT /v1/rules, or PATCH /v1/data) left on every
	// worker, or that every worker was since found alive on; "" until a
	// push has activated one. While some live worker reports it, a
	// worker that reports another etag is stale: alive, but routed
	// around until it reports this one.
	active string // guarded by mu
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

// snapshot returns every worker's status and the rules etag sub-batches
// are routed by (see enforced). A stale worker's last error names both
// etags.
func (r *registry) snapshot() ([]WorkerStatus, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	active := enforced(r.states, r.active)
	out := make([]WorkerStatus, len(r.states))
	copy(out, r.states)
	for i := range out {
		if s := &out[i]; s.Alive && !current(*s, active) {
			s.LastError = fmt.Sprintf("serving rules generation %s, not the activated %s", s.RulesETag, active)
		}
	}
	return out, active
}

func (r *registry) markAlive(i int, etag string, version int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[i] = WorkerStatus{URL: r.states[i].URL, Alive: true, RulesETag: etag, RulesVersion: version}
}

// pushed records every worker's answer to a fleet-wide push: worker i
// is alive on rules generation etags[i] at versions[i]. When they all
// name one generation, it becomes the activated one; when they do not,
// the activated generation stays, and so do the sub-batches on the
// workers that report it.
func (r *registry) pushed(etags []string, versions []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, etag := range etags {
		r.states[i] = WorkerStatus{URL: r.states[i].URL, Alive: true, RulesETag: etag, RulesVersion: versions[i]}
	}
	if etag := agreed(r.states); etag != "" {
		r.active = etag
	}
}

// settle ends a health round. Once a push has activated a generation,
// a fleet whose every worker is alive on one other generation (moved
// there by a push through another coordinator, or by a rolling restart
// on a new rules file) makes that generation the activated one. A round
// with a worker down adopts nothing, so a lone survivor on old rules
// does not displace the pushed generation when its peers come back.
func (r *registry) settle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active == "" {
		return
	}
	if etag := agreed(r.states); etag != "" {
		r.active = etag
	}
}

// agreed returns the rules etag every worker in states reports alive,
// "" when one is down or they differ.
func agreed(states []WorkerStatus) string {
	for _, s := range states {
		if !s.Alive || s.RulesETag != states[0].RulesETag {
			return ""
		}
	}
	return states[0].RulesETag
}

// enforced returns the rules etag sub-batches are routed by: the
// activated one, active, while some live worker in states reports it,
// "" before the first push or once no live worker is left on it. A
// fleet is never routed around its only live generation.
func enforced(states []WorkerStatus, active string) string {
	for _, s := range states {
		if s.Alive && s.RulesETag == active {
			return active
		}
	}
	return ""
}

func (r *registry) markDead(i int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[i].Alive = false
	if err != nil {
		r.states[i].LastError = err.Error()
	}
}

// current reports whether s is on the enforced rules generation
// active, which every worker is while none is enforced.
func current(s WorkerStatus, active string) bool {
	return active == "" || s.RulesETag == active
}

// stale reports whether worker i reported a rules generation other than
// the enforced one.
func (r *registry) stale(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !current(r.states[i], enforced(r.states, r.active))
}

// routable reports whether worker i may receive a sub-batch: it is alive
// and on the enforced rules generation.
func (r *registry) routable(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.states[i].Alive && current(r.states[i], enforced(r.states, r.active))
}

// healthyCount counts the routable workers.
func (r *registry) healthyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	active := enforced(r.states, r.active)
	n := 0
	for _, s := range r.states {
		if s.Alive && current(s, active) {
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
// old generation, and the skew stays above 1 until the next push moves
// it. Once a push has activated a generation, such a worker is stale
// and gets no sub-batch while a live peer reports the activated one
// (dispatch sends its share to the next routable worker); before the
// first push, a batch that lands on two generations fails the merge
// with 502.
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
	c.reg.settle()
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
