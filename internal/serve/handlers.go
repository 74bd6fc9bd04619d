package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/repair"
	"erminer/internal/rulesio"
)

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRepair, s.handleRepair)
	mux.HandleFunc("POST "+PathValidate, s.handleValidate)
	mux.HandleFunc("GET "+PathRules, s.handleRulesGet)
	mux.HandleFunc("PUT "+PathRules, s.handleRulesPut)
	mux.HandleFunc("POST "+PathRulesStage, s.handleRulesStage)
	mux.HandleFunc("POST "+PathRulesActivate, s.handleRulesActivate)
	mux.HandleFunc("PATCH "+PathData, s.handleDataPatch)
	mux.HandleFunc("POST "+PathJobs, s.handleJobsPost)
	mux.HandleFunc("GET "+PathJobs, s.handleJobsList)
	mux.HandleFunc("GET "+PathJobByID, s.handleJobsGet)
	mux.HandleFunc("GET "+PathHealthz, s.handleHealthz)
	mux.HandleFunc("GET "+PathMetrics, s.handleMetrics)
	s.mux = mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//ermvet:ignore errdrop a failed response write means the client is gone; there is no one to tell
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//ermvet:ignore errdrop a failed response write means the client is gone; there is no one to tell
	json.NewEncoder(w).Encode(v)
}

// decodeJSON strictly decodes the request body into v (unknown fields
// and trailing garbage are errors, and the body is size-capped).
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxBody()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// TupleBatch is the common request shape of /v1/repair and /v1/validate:
// a batch of tuples as column-name → value maps. Absent columns are
// treated as missing (Null). It is exported (with the response types
// below) so the ermcluster coordinator speaks exactly this wire shape
// when fanning out sub-batches — byte-identical merged responses
// require one definition, not a parallel copy that can drift.
//
//ermvet:wire
type TupleBatch struct {
	Tuples []map[string]string `json:"tuples"`
	// OnlyMissing restricts repair to Null cells (imputation mode).
	OnlyMissing bool `json:"only_missing,omitempty"`
	// Explain adds each contributing rule's full candidate histogram to
	// every fix (the rule list itself is always included).
	Explain bool `json:"explain,omitempty"`
}

// encodeBatch builds a private relation over the serving input schema
// from the posted tuples, sharing the serving dictionary pool so codes
// align with the master data. It write-locks the dictionaries: unseen
// values are interned.
func (s *Server) encodeBatch(tuples []map[string]string) (*relation.Relation, error) {
	for i, t := range tuples {
		if t == nil {
			tuples[i] = map[string]string{}
		}
	}
	s.dictMu.Lock()
	defer s.dictMu.Unlock()
	schema := s.p.Input.Schema()
	rel := relation.New(schema, s.p.Input.Pool())
	vals := make([]string, schema.Len())
	for i, t := range tuples {
		for j := range vals {
			vals[j] = ""
		}
		for col, v := range t {
			idx := schema.Index(col)
			if idx < 0 {
				return nil, fmt.Errorf("tuple %d: unknown column %q", i, col)
			}
			vals[idx] = v
		}
		rel.AppendRow(vals)
	}
	return rel, nil
}

// runRules evaluates the active rule set over the posted batch on the
// shared index cache, honouring the request deadline. The returned
// evaluator has already had its stats folded into the server metrics.
func (s *Server) runRules(ctx context.Context, rel *relation.Relation, rs *ruleSet) (*measure.Evaluator, repair.Result, error) {
	//ermvet:ignore guardedby evaluation reads immutable master codes and the thread-safe IndexCache only; dictionaries are untouched (decision 12)
	p := s.p
	ev := measure.NewSharedEvaluator(rel, p.Master, nil, p.IndexCache)
	res, err := repair.ApplyContext(ctx, ev, rs.list)
	s.metrics.indexBuilds.Add(int64(ev.Stats.IndexBuilds))
	return ev, res, err
}

// FixJSON is one repaired cell with its justification.
type FixJSON struct {
	Row   int     `json:"row"`
	Attr  string  `json:"attr"`
	Old   string  `json:"old"`
	New   string  `json:"new"`
	Score float64 `json:"score"`
	// Rules lists the covering rules that contributed candidates.
	Rules []string `json:"rules,omitempty"`
	// Evidence carries each rule's candidate histogram (explain=true).
	Evidence []EvidenceJSON `json:"evidence,omitempty"`
}

type EvidenceJSON struct {
	Rule       string          `json:"rule"`
	Candidates []CandidateJSON `json:"candidates"`
}

type CandidateJSON struct {
	Value string  `json:"value"`
	Count int     `json:"count"`
	Score float64 `json:"score"`
}

// TupleBatchVersion numbers the shared /v1/repair / /v1/validate
// request shape.
const TupleBatchVersion = 1

// RepairResponse is the /v1/repair response body, merged sub-batch by
// sub-batch on the coordinator.
//
//ermvet:wire
type RepairResponse struct {
	Tuples       []map[string]string `json:"tuples"`
	Fixes        []FixJSON           `json:"fixes"`
	Covered      int                 `json:"covered"`
	Changed      int                 `json:"changed"`
	RulesVersion int64               `json:"rules_version"`
}

// RepairResponseVersion numbers the /v1/repair response shape.
const RepairResponseVersion = 1

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.inFlightRepair.Add(1)
	defer s.metrics.inFlightRepair.Add(-1)
	// Every outcome lands in the latency window — 4xx, queue rejections
	// and timeouts included — so the p50/p99 lines describe what clients
	// actually experience, not just the successes.
	defer func() { s.metrics.observeLatency(time.Since(start)) }()
	var req TupleBatch
	if err := s.decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Tuples) == 0 {
		httpError(w, http.StatusBadRequest, "empty tuple batch")
		return
	}
	if len(req.Tuples) > s.cfg.maxBatch() {
		httpError(w, http.StatusBadRequest, "batch of %d tuples exceeds the %d limit", len(req.Tuples), s.cfg.maxBatch())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout())
	defer cancel()

	release, status, err := s.acquire(ctx.Done())
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	defer release()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	if s.holdRepair != nil {
		s.holdRepair()
	}
	s.metrics.tuplesSeen.Add(int64(len(req.Tuples)))

	rs := s.rules()
	rel, err := s.encodeBatch(req.Tuples)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ev, res, err := s.runRules(ctx, rel, rs)
	if err != nil {
		s.metrics.timeoutsTotal.Add(1)
		httpError(w, http.StatusGatewayTimeout, "repair timed out: %v", err)
		return
	}

	// The read lock spans from the first s.p read through the dictionary
	// lookups below: a concurrent encodeBatch grows the shared pool, so
	// reading the problem outside the lock would race it.
	s.dictMu.RLock()
	y := s.p.Y
	yName := s.p.Input.Schema().Attr(y).Name
	oldCodes := make([]int32, rel.NumRows())
	for row := range oldCodes {
		oldCodes[row] = rel.Code(row, y)
	}
	changed := repair.WriteFixes(rel, y, res, req.OnlyMissing)

	resp := RepairResponse{
		Tuples:       req.Tuples,
		Fixes:        []FixJSON{},
		Covered:      res.Covered,
		Changed:      changed,
		RulesVersion: rs.version,
	}
	for row := 0; row < rel.NumRows(); row++ {
		if res.Pred[row] == relation.Null || rel.Code(row, y) == oldCodes[row] {
			continue
		}
		fix := FixJSON{
			Row:   row,
			Attr:  yName,
			Old:   rel.Dict(y).Value(oldCodes[row]),
			New:   rel.Dict(y).Value(res.Pred[row]),
			Score: res.Score[row],
		}
		exp := repair.Explain(ev, rs.list, row)
		for _, evd := range exp.Evidence {
			ruleStr := evd.Rule.String(rel, s.p.Master.Schema())
			fix.Rules = append(fix.Rules, ruleStr)
			if req.Explain {
				ej := EvidenceJSON{Rule: ruleStr}
				for _, c := range evd.Candidates {
					ej.Candidates = append(ej.Candidates, CandidateJSON{
						Value: rel.Dict(y).Value(c.Value),
						Count: c.Count,
						Score: c.Score,
					})
				}
				fix.Evidence = append(fix.Evidence, ej)
			}
		}
		resp.Tuples[row][yName] = fix.New
		resp.Fixes = append(resp.Fixes, fix)
	}
	s.dictMu.RUnlock()
	s.metrics.repairsApplied.Add(int64(changed))
	writeJSON(w, http.StatusOK, resp)
}

type ValidationJSON struct {
	Row      int     `json:"row"`
	Status   string  `json:"status"` // consistent, violation, missing, uncovered
	Attr     string  `json:"attr"`
	Got      string  `json:"got,omitempty"`
	Expected string  `json:"expected,omitempty"`
	Score    float64 `json:"score,omitempty"`
}

// ValidateResponse is the /v1/validate response body, merged sub-batch
// by sub-batch on the coordinator.
//
//ermvet:wire
type ValidateResponse struct {
	Results      []ValidationJSON `json:"results"`
	Violations   int              `json:"violations"`
	Missing      int              `json:"missing"`
	Uncovered    int              `json:"uncovered"`
	RulesVersion int64            `json:"rules_version"`
}

// ValidateResponseVersion numbers the /v1/validate response shape.
const ValidateResponseVersion = 1

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.inFlightValidate.Add(1)
	defer s.metrics.inFlightValidate.Add(-1)
	// As in handleRepair: every outcome is observed, not just 200s.
	defer func() { s.metrics.observeLatency(time.Since(start)) }()
	var req TupleBatch
	if err := s.decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Tuples) == 0 {
		httpError(w, http.StatusBadRequest, "empty tuple batch")
		return
	}
	if len(req.Tuples) > s.cfg.maxBatch() {
		httpError(w, http.StatusBadRequest, "batch of %d tuples exceeds the %d limit", len(req.Tuples), s.cfg.maxBatch())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout())
	defer cancel()

	release, status, err := s.acquire(ctx.Done())
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	defer release()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	s.metrics.tuplesSeen.Add(int64(len(req.Tuples)))

	rs := s.rules()
	rel, err := s.encodeBatch(req.Tuples)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, res, err := s.runRules(ctx, rel, rs)
	if err != nil {
		s.metrics.timeoutsTotal.Add(1)
		httpError(w, http.StatusGatewayTimeout, "validation timed out: %v", err)
		return
	}

	// As in handleRepair: s.p and the dictionaries must be read under
	// the same lock that encodeBatch writes them under.
	s.dictMu.RLock()
	y := s.p.Y
	yName := s.p.Input.Schema().Attr(y).Name
	resp := ValidateResponse{Results: make([]ValidationJSON, rel.NumRows()), RulesVersion: rs.version}
	for row := 0; row < rel.NumRows(); row++ {
		v := ValidationJSON{Row: row, Attr: yName, Got: rel.Value(row, y)}
		switch cur := rel.Code(row, y); {
		case res.Pred[row] == relation.Null:
			v.Status = "uncovered"
			resp.Uncovered++
		case cur == relation.Null:
			v.Status = "missing"
			v.Expected = rel.Dict(y).Value(res.Pred[row])
			v.Score = res.Score[row]
			resp.Missing++
		case cur == res.Pred[row]:
			v.Status = "consistent"
		default:
			v.Status = "violation"
			v.Expected = rel.Dict(y).Value(res.Pred[row])
			v.Score = res.Score[row]
			resp.Violations++
		}
		resp.Results[row] = v
	}
	s.dictMu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleRulesGet serves the active rule set in the portable wire format
// (the same JSON -export-rules writes and -import-rules reads), with
// the generation counter in the X-Rules-Version header and the
// generation's content hash as a strong ETag — the id an ermcluster
// coordinator compares across workers to spot replication skew.
func (s *Server) handleRulesGet(w http.ResponseWriter, r *http.Request) {
	rs := s.rules()
	s.dictMu.RLock()
	data, err := rulesio.Export(s.p, rs.rules)
	s.dictMu.RUnlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "exporting rules: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Rules-Version", fmt.Sprint(rs.version))
	w.Header().Set("ETag", `"`+rs.etag+`"`)
	//ermvet:ignore errdrop a failed response write means the client is gone; there is no one to tell
	w.Write(data)
}

// RulesAck is the response body of PUT /v1/rules and of
// POST /v1/rules/activate: the generation the rules landed as. The
// coordinator relays it verbatim to its own caller.
//
//ermvet:wire
type RulesAck struct {
	Version int64  `json:"version"`
	Count   int    `json:"count"`
	ETag    string `json:"etag"`
}

// RulesAckVersion numbers the rule-swap acknowledgement shape.
const RulesAckVersion = 1

func (s *Server) handleRulesPut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBody()))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	version, count, err := s.SwapRules(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, RulesAck{Version: version, Count: count, ETag: s.rules().etag})
}

// handleRulesStage is phase one of the cluster's two-phase rule push:
// import and park a generation without activating it, answering its
// content hash. The coordinator stages on every worker, verifies the
// returned etags agree, and only then tells anyone to activate.
func (s *Server) handleRulesStage(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBody()))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	etag, count, err := s.StageRules(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, StageResponse{ETag: etag, Count: count})
}

// StageResponse is the response body of POST /v1/rules/stage: the
// content hash the staged generation can later be activated by.
//
//ermvet:wire
type StageResponse struct {
	ETag  string `json:"etag"`
	Count int    `json:"count"`
}

// StageResponseVersion numbers the staging response shape.
const StageResponseVersion = 1

// ActivateRequest is the request body of POST /v1/rules/activate,
// naming the staged generation to swap in by its content hash.
//
//ermvet:wire
type ActivateRequest struct {
	ETag string `json:"etag"`
}

// ActivateRequestVersion numbers the activation request shape.
const ActivateRequestVersion = 1

// handleRulesActivate is phase two: atomically swap in the staged
// generation named by the request's etag.
func (s *Server) handleRulesActivate(w http.ResponseWriter, r *http.Request) {
	var req ActivateRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	version, count, err := s.ActivateStaged(req.ETag)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, RulesAck{Version: version, Count: count, ETag: req.ETag})
}

func (s *Server) handleJobsPost(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := s.decodeJSON(w, r, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if _, err := newMiner(spec); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.jobs.submit(spec)
	switch {
	case errors.Is(err, errJobQueueFull):
		s.metrics.rejectedTotal.Add(1)
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, errShuttingDown):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) handleJobsGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// HealthResponse is the worker's /healthz body. The coordinator's
// registry decodes it to track per-worker liveness and rules-generation
// skew, so it is a pinned wire shape like the batch responses.
//
//ermvet:wire
type HealthResponse struct {
	Status        string `json:"status"`
	Role          string `json:"role,omitempty"`
	RulesActive   int    `json:"rules_active"`
	RulesVersion  int64  `json:"rules_version"`
	RulesETag     string `json:"rules_etag"`
	JobsQueued    int    `json:"jobs_queued"`
	JobsRunning   int    `json:"jobs_running"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// HealthResponseVersion numbers the worker health-probe shape.
const HealthResponseVersion = 1

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rs := s.rules()
	queued, running := s.jobs.depths()
	status := "ok"
	code := http.StatusOK
	if s.closed.Load() {
		status = "shutting_down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthResponse{
		Status:        status,
		Role:          s.cfg.Role,
		RulesActive:   len(rs.rules),
		RulesVersion:  rs.version,
		RulesETag:     rs.etag,
		JobsQueued:    queued,
		JobsRunning:   running,
		UptimeSeconds: int64(time.Since(s.metrics.start).Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rs := s.rules()
	queued, running := s.jobs.depths()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.write(w, len(rs.rules), rs.version, queued, running)
}
