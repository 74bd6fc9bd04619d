package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"erminer/internal/serve"
)

func (c *Coordinator) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+serve.PathRepair, c.handleRepair)
	mux.HandleFunc("POST "+serve.PathValidate, c.handleValidate)
	mux.HandleFunc("GET "+serve.PathRules, c.handleRulesGet)
	mux.HandleFunc("PUT "+serve.PathRules, c.handleRulesPut)
	mux.HandleFunc("PATCH "+serve.PathData, c.handleDataPatch)
	mux.HandleFunc("GET "+serve.PathHealthz, c.handleHealthz)
	mux.HandleFunc("GET "+serve.PathMetrics, c.handleMetrics)
	c.mux = mux
}

// fanout partitions the batch, dispatches every non-empty sub-batch
// concurrently, and returns each worker's response body in a pooled
// buffer (nil for workers that drew no tuples), to be returned with
// putBufs. On failure it writes the HTTP error — relaying the request's
// own fault when a worker reported one (relayFault) — and returns
// ok=false.
func (c *Coordinator) fanout(ctx context.Context, w http.ResponseWriter, method, path string, req serve.TupleBatch, parts [][]int) ([]*[]byte, bool) {
	n := len(c.workers)
	subs := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(parts[i]) == 0 {
			continue
		}
		sub := serve.TupleBatch{
			Tuples:      make([]map[string]string, len(parts[i])),
			OnlyMissing: req.OnlyMissing,
			Explain:     req.Explain,
		}
		for k, idx := range parts[i] {
			sub.Tuples[k] = req.Tuples[idx]
		}
		body, err := json.Marshal(sub)
		if err != nil {
			serve.HTTPError(w, http.StatusInternalServerError, "encoding sub-batch: %v", err)
			return nil, false
		}
		subs[i] = body
	}
	bufs := make([]*[]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, body := range subs {
		if body == nil {
			continue
		}
		c.metrics.subbatchesTotal.Add(1)
		bufs[i] = getBuf()
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			errs[i] = c.dispatch(ctx, method, path, body, i, bufs[i])
		}(i, body)
	}
	wg.Wait()
	if relayFault(w, errs, parts) {
		putBufs(bufs)
		return nil, false
	}
	// Retryable statuses that survived the whole dispatch budget, like
	// any transport failure, become a 502.
	for i, err := range errs {
		if err != nil {
			putBufs(bufs)
			serve.HTTPError(w, http.StatusBadGateway, "sub-batch for worker %d failed: %v", i, err)
			return nil, false
		}
	}
	return bufs, true
}

// relayFault answers the request's own fault if a worker reported one
// (a non-retryable 4xx) and reports whether it did. A 400 naming an
// unknown column names its tuple by sub-batch position: it is
// renumbered to the batch position, and when several workers reject,
// the lowest batch position wins — the tuple a single node names. Any
// other 4xx is a batch-level fault, relayed verbatim from the lowest
// worker index that answered one.
func relayFault(w http.ResponseWriter, errs []error, parts [][]int) bool {
	var verbatim *passthrough
	var first *serve.UnknownColumnError
	for i, err := range errs {
		var pt *passthrough
		if !errors.As(err, &pt) || retryableStatus(pt.status) {
			continue
		}
		if uc := unknownColumn(pt, parts[i]); uc != nil {
			if first == nil || uc.Index < first.Index {
				first = uc
			}
		} else if verbatim == nil {
			verbatim = pt
		}
	}
	switch {
	case verbatim != nil:
		writeRaw(w, verbatim.status, verbatim.body)
	case first != nil:
		serve.HTTPError(w, http.StatusBadRequest, "%v", first)
	default:
		return false
	}
	return true
}

// unknownColumn parses a worker's 400 as a serve.UnknownColumnError
// and renumbers its tuple into batch coordinates, or returns nil.
func unknownColumn(pt *passthrough, part []int) *serve.UnknownColumnError {
	if pt.status != http.StatusBadRequest {
		return nil
	}
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(pt.body, &body) != nil {
		return nil
	}
	uc, ok := serve.ParseUnknownColumnError(body.Error)
	if !ok || uc.Index >= len(part) {
		return nil
	}
	uc.Index = part[uc.Index]
	return uc
}

// writeRaw answers code with body, JSON its sender already encoded.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//ermvet:ignore errdrop a failed response write means the client is gone; there is no one to tell
	w.Write(body)
}

// batch runs the steps /v1/repair and /v1/validate share: decode the
// request as a single node would, partition it and fan it out. It
// returns the workers' bodies (nil for workers that drew no tuples),
// the partition, and the pooled buffers holding the bodies, which the
// caller returns with putBufs. On failure it has answered the request.
func (c *Coordinator) batch(w http.ResponseWriter, r *http.Request, method, path string) ([][]byte, [][]int, []*[]byte, bool) {
	if c.closed.Load() {
		serve.HTTPError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return nil, nil, nil, false
	}
	var req serve.TupleBatch
	if !serve.DecodeBatch(w, r, c.cfg.maxBatch(), &req) {
		return nil, nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.requestTimeout())
	defer cancel()
	c.metrics.tuplesSeen.Add(int64(len(req.Tuples)))

	parts := partition(req.Tuples, len(c.workers))
	bufs, ok := c.fanout(ctx, w, method, path, req, parts)
	if !ok {
		return nil, nil, nil, false
	}
	bodies := make([][]byte, len(bufs))
	for i, b := range bufs {
		if b != nil {
			bodies[i] = *b
		}
	}
	return bodies, parts, bufs, true
}

// handleRepair and handleValidate merge by splicing the workers' bytes
// (splice.go): tuple i of the request is tuple k of its worker's
// sub-batch, where parts[w][k] == i, and rows are renumbered from
// sub-batch to batch coordinates.
func (c *Coordinator) handleRepair(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	c.metrics.inFlightRepair.Add(1)
	defer c.metrics.inFlightRepair.Add(-1)
	defer func() { c.metrics.observeLatency(time.Since(start)) }()
	bodies, parts, bufs, ok := c.batch(w, r, http.MethodPost, serve.PathRepair)
	if !ok {
		return
	}
	defer putBufs(bufs)
	out := getBuf()
	defer putBuf(out)
	var changed int
	var err error
	*out, changed, err = spliceRepair(bodies, parts, *out)
	if err != nil {
		serve.HTTPError(w, http.StatusBadGateway, "%v", err)
		return
	}
	c.metrics.repairsApplied.Add(int64(changed))
	writeRaw(w, http.StatusOK, *out)
}

func (c *Coordinator) handleValidate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	c.metrics.inFlightValidate.Add(1)
	defer c.metrics.inFlightValidate.Add(-1)
	defer func() { c.metrics.observeLatency(time.Since(start)) }()
	bodies, parts, bufs, ok := c.batch(w, r, http.MethodPost, serve.PathValidate)
	if !ok {
		return
	}
	defer putBufs(bufs)
	out := getBuf()
	defer putBuf(out)
	var err error
	*out, err = spliceValidate(bodies, parts, *out)
	if err != nil {
		serve.HTTPError(w, http.StatusBadGateway, "%v", err)
		return
	}
	writeRaw(w, http.StatusOK, *out)
}

// handleRulesPut replicates a rule-set generation to the whole fleet in
// two phases. Phase 1 stages the wire-format file on every worker; each
// answers the generation's content hash, which must agree everywhere
// (the hash is computed over the canonical re-export, so agreement
// means every worker parsed the same semantic rule set). Phase 2 tells
// every worker to activate exactly that hash. Any phase-1 failure
// aborts before a single worker has activated, leaving the old
// generation serving everywhere.
func (c *Coordinator) handleRulesPut(w http.ResponseWriter, r *http.Request) {
	if c.closed.Load() {
		serve.HTTPError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	if err != nil {
		serve.HTTPError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.requestTimeout())
	defer cancel()

	// Phase 1: stage everywhere. No hedging — a stage must land on the
	// very worker it targets, there is no substitute.
	//ermvet:ignore lockorder pushMu exists to serialize fleet pushes; the wait is bounded by the per-request context timeout above
	staged, err := c.pushAll(ctx, http.MethodPost, serve.PathRulesStage, body)
	if err != nil {
		c.relayPushError(w, "staging rules", err)
		return
	}
	etag, count := "", 0
	for i, raw := range staged {
		var sr serve.StageResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			serve.HTTPError(w, http.StatusBadGateway, "decoding worker %d stage response: %v", i, err)
			return
		}
		if i == 0 {
			etag, count = sr.ETag, sr.Count
		} else if sr.ETag != etag {
			serve.HTTPError(w, http.StatusBadGateway, "workers staged different generations (%s vs %s); no activation was attempted", etag, sr.ETag)
			return
		}
	}

	// Phase 2: activate the agreed generation everywhere.
	actBody, err := json.Marshal(serve.ActivateRequest{ETag: etag})
	if err != nil {
		serve.HTTPError(w, http.StatusInternalServerError, "encoding activate request: %v", err)
		return
	}
	//ermvet:ignore lockorder pushMu exists to serialize fleet pushes; the wait is bounded by the per-request context timeout above
	activated, err := c.pushAll(ctx, http.MethodPost, serve.PathRulesActivate, actBody)
	if err != nil {
		c.relayPushError(w, "activating rules", err)
		return
	}
	version := int64(0)
	etags, versions := make([]string, len(activated)), make([]int64, len(activated))
	for i, raw := range activated {
		var ar serve.RulesAck
		if err := json.Unmarshal(raw, &ar); err != nil {
			serve.HTTPError(w, http.StatusBadGateway, "decoding worker %d activate response: %v", i, err)
			return
		}
		etags[i], versions[i] = ar.ETag, ar.Version
		if ar.Version > version {
			version = ar.Version
		}
	}
	// Every worker now serves etag: from here on, one that reports
	// another generation (restarted from its startup rules, say) gets no
	// sub-batch until it reports this one.
	c.reg.pushed(etags, versions)
	c.generation.Add(1)
	c.metrics.rulePushes.Add(1)
	serve.WriteJSON(w, http.StatusOK, serve.RulesAck{Version: version, Count: count, ETag: etag})
}

// handleDataPatch replicates a data delta to the whole fleet. Master
// and input data are replicated, not sharded — every worker holds the
// full relations, which is what lets sub-batches hedge to any peer —
// so the "owning shard" of a delta is every worker: the coordinator
// pushes the same PATCH /v1/data to all of them under the push lock
// (serialized with rule pushes, whose generations a patch also
// advances) and then verifies the fleet converged on one data_version
// and one rules_etag. Divergence means a worker applied the delta to
// different data than its peers — the same skew the two-phase rule
// push exists to prevent — and is reported as a 502 rather than
// papered over.
func (c *Coordinator) handleDataPatch(w http.ResponseWriter, r *http.Request) {
	if c.closed.Load() {
		serve.HTTPError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	var req serve.DataPatchRequest
	if err := serve.DecodeJSON(w, r, &req); err != nil {
		serve.HTTPError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Appends)+len(req.Updates) == 0 {
		serve.HTTPError(w, http.StatusBadRequest, "empty delta: no appends and no updates")
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		serve.HTTPError(w, http.StatusInternalServerError, "encoding patch request: %v", err)
		return
	}
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.requestTimeout())
	defer cancel()
	//ermvet:ignore lockorder pushMu exists to serialize fleet pushes; the wait is bounded by the per-request context timeout above
	raws, err := c.pushAll(ctx, http.MethodPatch, serve.PathData, body)
	if err != nil {
		c.relayPushError(w, "patching data", err)
		return
	}
	prs := make([]serve.DataPatchResponse, len(raws))
	etags, versions := make([]string, len(raws)), make([]int64, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &prs[i]); err != nil {
			serve.HTTPError(w, http.StatusBadGateway, "decoding worker %d patch response: %v", i, err)
			return
		}
		etags[i], versions[i] = prs[i].RulesETag, prs[i].RulesVersion
	}
	// Re-validation may have dropped rules and moved every worker to a
	// new generation: when they agree on it, it is the activated one.
	c.reg.pushed(etags, versions)
	first := prs[0]
	for i, pr := range prs[1:] {
		if pr.DataVersion != first.DataVersion || pr.RulesETag != first.RulesETag {
			serve.HTTPError(w, http.StatusBadGateway,
				"workers diverged after the data patch (worker %d: data_version %d, rules_etag %s; worker 0: data_version %d, rules_etag %s)",
				i+1, pr.DataVersion, pr.RulesETag, first.DataVersion, first.RulesETag)
			return
		}
	}
	c.metrics.dataPatches.Add(1)
	serve.WriteJSON(w, http.StatusOK, first)
}

// pushAll sends one body to every worker concurrently (with the
// dispatch path's per-attempt timeout and retry budget, but no
// cross-worker hedging) and returns all responses, or the
// lowest-indexed error.
func (c *Coordinator) pushAll(ctx context.Context, method, path string, body []byte) ([][]byte, error) {
	n := len(c.workers)
	data := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.postWithRetry(ctx, i, method, path, body, &data[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker %d (%s): %w", i, c.workers[i], err)
		}
	}
	return data, nil
}

// relayPushError maps a push failure onto the client: a worker's
// non-retryable 4xx (bad rules file, stale etag) is relayed verbatim;
// anything else — transport failures and retryable statuses that
// outlived the retry budget — is a 502 naming the failing phase.
func (c *Coordinator) relayPushError(w http.ResponseWriter, phase string, err error) {
	var pt *passthrough
	if errors.As(err, &pt) && !retryableStatus(pt.status) {
		writeRaw(w, pt.status, pt.body)
		return
	}
	serve.HTTPError(w, http.StatusBadGateway, "%s: %v", phase, err)
}

// handleRulesGet proxies the active rule set from the first routable
// worker, preserving the generation headers so clients (and operators
// debugging skew) see exactly what that worker serves.
func (c *Coordinator) handleRulesGet(w http.ResponseWriter, r *http.Request) {
	for i := range c.workers {
		if !c.reg.routable(i) {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), c.cfg.perWorkerTimeout())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.workers[i]+serve.PathRules, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := c.client.Do(req)
		if err != nil {
			cancel()
			c.reg.markDead(i, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		//ermvet:ignore errdrop nothing to do about a close error after the body is fully read
		resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		if v := resp.Header.Get("X-Rules-Version"); v != "" {
			w.Header().Set("X-Rules-Version", v)
		}
		if v := resp.Header.Get("ETag"); v != "" {
			w.Header().Set("ETag", v)
		}
		//ermvet:ignore errdrop a failed response write means the client is gone; there is no one to tell
		w.Write(body)
		return
	}
	serve.HTTPError(w, http.StatusBadGateway, "no routable worker to serve the rule set")
}

// handleHealthz reports the fleet: each worker's liveness and rules
// generation, and the activated generation sub-batches are routed by
// ("" while none is enforced). Healthy workers are the routable ones; a
// stale worker's last_error names both etags.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	workers, active := c.reg.snapshot()
	healthy := 0
	for _, s := range workers {
		if s.Alive && current(s, active) {
			healthy++
		}
	}
	skew := c.reg.generationSkew()
	status, code := "ok", http.StatusOK
	switch {
	case c.closed.Load():
		status, code = "shutting_down", http.StatusServiceUnavailable
	case healthy == 0:
		status, code = "unavailable", http.StatusServiceUnavailable
	case healthy < len(workers):
		status = "degraded"
	}
	serve.WriteJSON(w, code, map[string]any{
		"status":          status,
		"role":            "coordinator",
		"workers":         workers,
		"workers_total":   len(workers),
		"workers_healthy": healthy,
		"generation_skew": skew,
		"rules_etag":      active,
		"rule_pushes":     c.generation.Load(),
		"uptime_seconds":  int64(time.Since(c.metrics.start).Seconds()),
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	c.metrics.write(w, c.reg.healthyCount(), c.reg.generationSkew(), c.generation.Load())
}
