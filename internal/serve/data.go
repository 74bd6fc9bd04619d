// PATCH /v1/data: incremental mutation of the serving data (delta
// maintenance, DESIGN.md decision 19). A delta — appended tuples plus
// cell updates against the input or master relation — is applied
// atomically under the daemon's generation discipline: the repair
// worker pool is quiesced so no evaluation observes a torn relation,
// the relation absorbs the delta through relation.ApplyDelta, the
// shared caches patch themselves through the change log instead of
// being dropped, and only the active rules whose (X, X_m) footprint
// intersects the touched columns are re-scored. Rules that no longer
// clear the thresholds are dropped and a new rule generation is
// installed exactly as a PUT /v1/rules would install one. A request
// may additionally enqueue an RLMiner-ft fine-tuning job on the
// enriched data (see runFineTuneJob).

package serve

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"time"

	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/repair"
	"erminer/internal/rule"
)

// DataCellJSON is one cell update of a PATCH /v1/data delta. An empty
// value means Null (the same convention the tuple batch API uses for
// absent columns).
type DataCellJSON struct {
	Row   int    `json:"row"`
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// DataPatchRequest is the body of PATCH /v1/data: a delta against one
// of the serving relations. Appends use the tuple-batch column-map
// shape; absent columns are Null. The whole delta is validated before
// any of it is applied — a bad row index or unknown column leaves the
// data untouched.
//
//ermvet:wire
type DataPatchRequest struct {
	// Target selects the relation: "input" (the mining corpus) or
	// "master" (the reference data repairs are drawn from).
	Target  string              `json:"target"`
	Appends []map[string]string `json:"appends,omitempty"`
	Updates []DataCellJSON      `json:"updates,omitempty"`
	// Remine enqueues an RLMiner-ft job after the patch: fine-tune the
	// retained value network on the enriched data and hot-swap the
	// mined generation in if its measures clear the thresholds.
	Remine bool `json:"remine,omitempty"`
	// RemineSteps overrides the fine-tune step budget; zero means the
	// rlminer default.
	RemineSteps int `json:"remine_steps,omitempty"`
}

// DataPatchRequestVersion numbers the PATCH /v1/data request shape.
const DataPatchRequestVersion = 1

// DataPatchResponse reports what a PATCH /v1/data changed: the data
// side (rows appended, columns touched, the relation's new version)
// and the rule side (how many active rules were re-scored, how many
// fell below the thresholds and were dropped, and the generation now
// serving). An ermcluster coordinator compares DataVersion and
// RulesETag across workers to verify the fleet converged.
//
//ermvet:wire
type DataPatchResponse struct {
	Target         string   `json:"target"`
	AppendedRows   int      `json:"appended_rows"`
	TouchedColumns []string `json:"touched_columns,omitempty"`
	Rows           int      `json:"rows"`
	DataVersion    int64    `json:"data_version"`
	Revalidated    int      `json:"revalidated"`
	Dropped        int      `json:"dropped"`
	RulesActive    int      `json:"rules_active"`
	RulesVersion   int64    `json:"rules_version"`
	RulesETag      string   `json:"rules_etag"`
	RemineJob      string   `json:"remine_job,omitempty"`
	RemineError    string   `json:"remine_error,omitempty"`
}

// DataPatchResponseVersion numbers the PATCH /v1/data response shape.
const DataPatchResponseVersion = 1

// patchEnv captures, under dictMu, every piece of serving state the
// post-patch steps need, so cache patching and re-validation touch no
// s.p field outside the lock.
type patchEnv struct {
	input, master *relation.Relation
	truth         []int32
	cache         *measure.IndexCache
	columns       *measure.ColumnIndex
	etaS          int
}

// rel returns the patched relation.
func (e patchEnv) rel(master bool) *relation.Relation {
	if master {
		return e.master
	}
	return e.input
}

// quiesce claims every repair worker slot, draining in-flight
// evaluation: once it returns, no request is evaluating against the
// serving relations or the shared caches, and none can start until
// release is called. done bounds the wait.
func (s *Server) quiesce(done <-chan struct{}) (release func(), err error) {
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	n := cap(s.workers)
	for i := 0; i < n; i++ {
		select {
		case s.workers <- struct{}{}:
		case <-done:
			for ; i > 0; i-- {
				<-s.workers
			}
			return nil, fmt.Errorf("serve: timed out draining in-flight evaluation for the data patch")
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-s.workers
		}
	}, nil
}

// PatchData applies a delta to the serving data and re-validates the
// active rule set. It quiesces the repair pool for the duration — a
// data patch is a rare control-plane operation, and stopping the world
// is what makes the mutation atomic from every request's point of
// view. The returned status is the HTTP code for err.
func (s *Server) PatchData(done <-chan struct{}, req DataPatchRequest) (DataPatchResponse, int, error) {
	resp := DataPatchResponse{Target: req.Target}
	var master bool
	switch req.Target {
	case "input":
	case "master":
		master = true
	default:
		return resp, http.StatusBadRequest, fmt.Errorf("target must be \"input\" or \"master\", got %q", req.Target)
	}
	if len(req.Appends) == 0 && len(req.Updates) == 0 {
		return resp, http.StatusBadRequest, fmt.Errorf("empty delta: no appends and no updates")
	}
	release, err := s.quiesce(done)
	if err != nil {
		return resp, http.StatusGatewayTimeout, err
	}
	defer release()

	cs, env, err := s.applyPatch(req, master)
	if err != nil {
		return resp, http.StatusBadRequest, err
	}
	rel := env.rel(master)
	resp.AppendedRows = cs.Appended
	for _, c := range cs.Cols {
		resp.TouchedColumns = append(resp.TouchedColumns, rel.Schema().Attr(c).Name)
	}
	resp.Rows = rel.NumRows()
	resp.DataVersion = rel.Version()

	if cs.Empty() {
		// Every update wrote the value already present: nothing moved,
		// no cache was invalidated, the active generation stands.
		rs := s.rules()
		resp.RulesVersion, resp.RulesETag, resp.RulesActive = rs.version, rs.etag, len(rs.rules)
		return resp, http.StatusOK, nil
	}
	if master {
		// The input-side ColumnIndex patches itself through the change
		// log on next access; the master-side structures are patched
		// here, while the pool is quiet.
		env.cache.ApplyDelta(env.master, cs)
		if env.columns != nil {
			env.columns.ApplyMasterDelta(cs)
		}
	}
	version, etag, active, revalidated, dropped, err := s.revalidateAfter(cs, env, master)
	if err != nil {
		return resp, http.StatusInternalServerError, err
	}
	resp.RulesVersion, resp.RulesETag, resp.RulesActive = version, etag, active
	resp.Revalidated, resp.Dropped = revalidated, dropped
	s.metrics.dataPatches.Add(1)
	return resp, http.StatusOK, nil
}

// applyPatch resolves the request's column names and values to a typed
// delta under the dictionary lock (unseen values are interned) and
// applies it. The delta is validated in full before any value is
// interned, so a rejected delta leaves the shared dictionaries as they
// were; relation.ApplyDelta is atomic on top of that.
func (s *Server) applyPatch(req DataPatchRequest, master bool) (relation.ChangeSet, patchEnv, error) {
	s.dictMu.Lock()
	defer s.dictMu.Unlock()
	env := patchEnv{
		input:   s.p.Input,
		master:  s.p.Master,
		truth:   s.p.Truth,
		cache:   s.p.IndexCache,
		columns: s.p.Columns,
		etaS:    s.p.SupportThreshold,
	}
	rel := env.rel(master)
	schema := rel.Schema()
	// An append with several unknown columns names the first in sorted
	// order, so the 400 does not depend on map iteration order.
	for i, t := range req.Appends {
		var unknown []string
		for col := range t {
			if schema.Index(col) < 0 {
				unknown = append(unknown, col)
			}
		}
		if len(unknown) > 0 {
			return relation.ChangeSet{}, env, fmt.Errorf("append %d: unknown column %q", i, slices.Min(unknown))
		}
	}
	for i, u := range req.Updates {
		if schema.Index(u.Attr) < 0 {
			return relation.ChangeSet{}, env, fmt.Errorf("update %d: unknown column %q", i, u.Attr)
		}
		if u.Row < 0 || u.Row >= rel.NumRows() {
			return relation.ChangeSet{}, env, fmt.Errorf("update %d: row %d out of range", i, u.Row)
		}
	}
	// Values are interned in schema order, not map order, so columns
	// that share a domain get the same codes on every run.
	var d relation.Delta
	for _, t := range req.Appends {
		row := make([]int32, schema.Len())
		for c := range row {
			row[c] = relation.Null
			if v := t[schema.Attr(c).Name]; v != "" {
				row[c] = rel.Dict(c).Code(v)
			}
		}
		d.Appends = append(d.Appends, row)
	}
	for _, u := range req.Updates {
		idx := schema.Index(u.Attr)
		code := relation.Null
		if u.Value != "" {
			code = rel.Dict(idx).Code(u.Value)
		}
		d.Updates = append(d.Updates, relation.CellUpdate{Row: u.Row, Col: idx, Code: code})
	}
	cs, err := rel.ApplyDelta(d)
	if err != nil {
		return cs, env, err
	}
	// Labelled problems: appended input tuples arrive unlabelled, and
	// Truth must keep pace with the row count (Problem.Validate pins
	// len(Truth) == NumRows).
	if !master && cs.Appended > 0 && s.p.Truth != nil {
		for i := 0; i < cs.Appended; i++ {
			s.p.Truth = append(s.p.Truth, relation.Null)
		}
		env.truth = s.p.Truth
	}
	return cs, env, nil
}

// revalidateAfter re-scores exactly the active rules whose footprint
// the change set touches and installs the surviving rules as a new
// generation. When the delta touched no active rule, the current
// generation stands — same version, same etag.
func (s *Server) revalidateAfter(cs relation.ChangeSet, env patchEnv, master bool) (version int64, etag string, active, revalidated, dropped int, err error) {
	rs := s.rules()
	ev := measure.NewSharedEvaluator(env.input, env.master, env.truth, env.cache)
	if env.columns != nil {
		ev.ShareColumns(env.columns)
	}
	kept, revalidated, dropped := repair.Revalidate(ev, rs.rules, env.etaS, func(r *rule.Rule) bool {
		return repair.TouchedBy(r, cs, master)
	})
	s.metrics.indexBuilds.Add(int64(ev.Stats.IndexBuilds))
	if revalidated == 0 {
		return rs.version, rs.etag, len(rs.rules), 0, 0, nil
	}
	etag, err = s.generationETag(kept)
	if err != nil {
		return 0, "", 0, revalidated, dropped, fmt.Errorf("hashing re-validated generation: %w", err)
	}
	nrs := &ruleSet{version: s.version.Add(1), etag: etag, rules: kept, list: ruleList(kept)}
	s.install(nrs)
	s.metrics.ruleSwaps.Add(1)
	return nrs.version, etag, len(kept), revalidated, dropped, nil
}

// handleDataPatch is PATCH /v1/data.
func (s *Server) handleDataPatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.metrics.observeLatency(time.Since(start)) }()
	var req DataPatchRequest
	if err := DecodeJSON(w, r, s.cfg.maxBody(), &req); err != nil {
		HTTPError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if n := len(req.Appends) + len(req.Updates); n > s.cfg.maxBatch() {
		HTTPError(w, http.StatusBadRequest, "delta of %d entries exceeds the %d limit", n, s.cfg.maxBatch())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout())
	defer cancel()
	resp, status, err := s.PatchData(ctx.Done(), req)
	if err != nil {
		HTTPError(w, status, "%v", err)
		return
	}
	if req.Remine {
		// The patch itself succeeded; a full remine queue degrades the
		// response, it does not fail it.
		j, jerr := s.jobs.submit(JobSpec{Method: "rlminer-ft", Steps: req.RemineSteps, Activate: true})
		if jerr != nil {
			resp.RemineError = jerr.Error()
		} else {
			resp.RemineJob = j.id
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}
