package serve

// The suite exercises the daemon through its HTTP surface (Go 1.22
// ServeMux with method patterns) against a handcrafted district/area →
// postcode problem small enough that the asynchronous mining jobs run
// in milliseconds. The concurrency tests (queue saturation, shared
// index cache, shutdown drain) rely on the in-package holdRepair and
// holdJob hooks to park requests at deterministic points; check.sh
// runs everything under -race.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/rule"
	"erminer/internal/rulesio"
	"erminer/internal/schema"
)

// testProblem builds a problem whose master data holds the clean
// functional dependency district → postcode (hz→31200, bd→45000,
// cz→52000) over three areas each; the input corpus mirrors it with one
// missing postcode, so every miner discovers the dependency quickly.
func testProblem(t testing.TB) *core.Problem {
	t.Helper()
	pool := relation.NewPool()
	attrs := []relation.Attribute{
		{Name: "district", Domain: "d"},
		{Name: "area", Domain: "a"},
		{Name: "postcode", Domain: "p"},
	}
	in := relation.NewSchema(attrs...)
	ms := relation.NewSchema(attrs...)
	input := relation.New(in, pool)
	master := relation.New(ms, pool)
	postcode := map[string]string{"hz": "31200", "bd": "45000", "cz": "52000"}
	for _, d := range []string{"hz", "bd", "cz"} {
		for _, a := range []string{"010", "020", "030"} {
			master.AppendRow([]string{d, a, postcode[d]})
			input.AppendRow([]string{d, a, postcode[d]})
		}
	}
	input.AppendRow([]string{"hz", "020", ""})
	match, err := schema.FromNames(in, ms, map[string]string{"district": "district", "area": "area"})
	if err != nil {
		t.Fatal(err)
	}
	return &core.Problem{
		Input: input, Master: master, Match: match,
		Y: 2, Ym: 2, SupportThreshold: 2, TopK: 10,
	}
}

// districtRule is the handwritten district → postcode editing rule the
// fixture master certifies with certainty 1.
func districtRule() core.MinedRule {
	return core.MinedRule{
		Rule:     rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 2, nil),
		Measures: measure.Measures{Support: 9, Certainty: 1, Quality: 1, Utility: 9.65},
	}
}

func newTestServer(t testing.TB, rules []core.MinedRule, cfg Config) *Server {
	t.Helper()
	s, err := New(testProblem(t), rules, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		if err := s.Shutdown(done); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s
}

func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRepairHappyPath(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	w := do(s, "POST", "/v1/repair", `{"explain": true, "tuples": [
		{"district": "hz", "area": "010", "postcode": "99999"},
		{"district": "bd", "area": "020"},
		{"district": "zz", "area": "010", "postcode": "1"},
		{"district": "cz", "area": "030", "postcode": "52000"}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp RepairResponse
	decode(t, w, &resp)

	if resp.RulesVersion != 1 {
		t.Errorf("rules_version = %d, want 1", resp.RulesVersion)
	}
	if resp.Covered != 3 {
		t.Errorf("covered = %d, want 3 (zz joins no master tuple)", resp.Covered)
	}
	if resp.Changed != 2 || len(resp.Fixes) != 2 {
		t.Fatalf("changed = %d, fixes = %d, want 2 each", resp.Changed, len(resp.Fixes))
	}
	dirty, missing := resp.Fixes[0], resp.Fixes[1]
	if dirty.Row != 0 || dirty.Old != "99999" || dirty.New != "31200" || dirty.Attr != "postcode" {
		t.Errorf("dirty-cell fix = %+v", dirty)
	}
	if missing.Row != 1 || missing.Old != "" || missing.New != "45000" {
		t.Errorf("missing-cell fix = %+v", missing)
	}
	if dirty.Score <= 0 {
		t.Errorf("fix score = %g, want > 0", dirty.Score)
	}
	if len(dirty.Rules) == 0 || !strings.Contains(dirty.Rules[0], "district") {
		t.Errorf("fix carries no rule explanation: %+v", dirty.Rules)
	}
	if len(dirty.Evidence) == 0 || len(dirty.Evidence[0].Candidates) == 0 {
		t.Errorf("explain=true but no candidate evidence: %+v", dirty.Evidence)
	}
	if dirty.Evidence[0].Candidates[0].Value != "31200" {
		t.Errorf("top candidate = %+v, want 31200", dirty.Evidence[0].Candidates[0])
	}
	// The echoed tuples carry the repaired values in place.
	if got := resp.Tuples[0]["postcode"]; got != "31200" {
		t.Errorf("tuple 0 echoes postcode %q, want 31200", got)
	}
	if got := resp.Tuples[1]["postcode"]; got != "45000" {
		t.Errorf("tuple 1 echoes postcode %q, want 45000", got)
	}
	if got := resp.Tuples[2]["postcode"]; got != "1" {
		t.Errorf("uncovered tuple 2 was rewritten to %q", got)
	}
}

func TestRepairOnlyMissing(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	w := do(s, "POST", "/v1/repair", `{"only_missing": true, "tuples": [
		{"district": "hz", "area": "010", "postcode": "99999"},
		{"district": "bd", "area": "020"}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp RepairResponse
	decode(t, w, &resp)
	if resp.Covered != 2 {
		t.Errorf("covered = %d, want 2", resp.Covered)
	}
	if resp.Changed != 1 || len(resp.Fixes) != 1 {
		t.Fatalf("imputation mode changed %d cells (%d fixes), want 1", resp.Changed, len(resp.Fixes))
	}
	if resp.Fixes[0].Row != 1 || resp.Fixes[0].New != "45000" {
		t.Errorf("fix = %+v, want row 1 → 45000", resp.Fixes[0])
	}
	if got := resp.Tuples[0]["postcode"]; got != "99999" {
		t.Errorf("only_missing rewrote a populated cell to %q", got)
	}
}

// badBatches are /v1/repair and /v1/validate bodies that a server with
// Config{MaxBatch: 2} answers 400; FuzzRepairRequest seeds from them.
var badBatches = []struct {
	name, body string
}{
	{"malformed JSON", `{"tuples": [`},
	{"unknown field", `{"tuples": [{"district": "hz"}], "bogus": 1}`},
	{"trailing data", `{"tuples": [{"district": "hz"}]} {"again": true}`},
	{"trailing brace", `{"tuples": [{"district": "hz"}]}}`},
	{"trailing bracket", `{"tuples": [{"district": "hz"}]}]`},
	{"unknown column", `{"tuples": [{"street": "main", "district": "hz"}]}`},
	{"empty batch", `{"tuples": []}`},
	{"over max batch", `{"tuples": [{}, {}, {}]}`},
}

func TestRepairBadRequests(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{MaxBatch: 2})
	for _, tc := range badBatches {
		if w := do(s, "POST", "/v1/repair", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body)
		}
	}
}

// TestUnknownColumnDeterministic pins the 400 for a tuple with several
// unknown columns: it names the first in sorted order, so identical
// requests get identical bodies whatever the map iteration order.
func TestUnknownColumnDeterministic(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	const body = `{"tuples": [{"district": "hz"}, {"zeta": "1", "district": "hz", "alpha": "2", "mid": "3"}]}`
	const want = `{"error":"tuple 1: unknown column \"alpha\""}` + "\n"
	for i := 0; i < 200; i++ {
		for _, path := range []string{PathRepair, PathValidate} {
			if w := do(s, "POST", path, body); w.Code != http.StatusBadRequest || w.Body.String() != want {
				t.Fatalf("request %d to %s answered %d %s, want 400 %s", i, path, w.Code, w.Body, want)
			}
		}
	}
	e, ok := ParseUnknownColumnError(`tuple 1: unknown column "alpha"`)
	if !ok || *e != (UnknownColumnError{Index: 1, Column: "alpha"}) {
		t.Errorf("ParseUnknownColumnError = %+v, %v", e, ok)
	}
	for _, msg := range []string{`tuple -1: unknown column "a"`, `tuple 1: unknown column "a" and more`, `tuple 01: unknown column "a"`, `empty tuple batch`} {
		if _, ok := ParseUnknownColumnError(msg); ok {
			t.Errorf("ParseUnknownColumnError accepted %q", msg)
		}
	}
}

func TestValidateStatuses(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	w := do(s, "POST", "/v1/validate", `{"tuples": [
		{"district": "hz", "area": "010", "postcode": "31200"},
		{"district": "hz", "area": "010", "postcode": "99999"},
		{"district": "bd", "area": "010"},
		{"district": "zz", "area": "010", "postcode": "1"}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp ValidateResponse
	decode(t, w, &resp)
	want := []struct {
		status, expected string
	}{
		{"consistent", ""},
		{"violation", "31200"},
		{"missing", "45000"},
		{"uncovered", ""},
	}
	for i, wv := range want {
		got := resp.Results[i]
		if got.Status != wv.status || got.Expected != wv.expected {
			t.Errorf("row %d: got %s/%q, want %s/%q", i, got.Status, got.Expected, wv.status, wv.expected)
		}
	}
	if resp.Violations != 1 || resp.Missing != 1 || resp.Uncovered != 1 {
		t.Errorf("counts = %d/%d/%d, want 1/1/1", resp.Violations, resp.Missing, resp.Uncovered)
	}
}

// TestHotSwap starts with no rules, uploads a rule set over PUT
// /v1/rules, and checks the very next repair uses it; GET /v1/rules
// round-trips the active set in the wire format.
func TestHotSwap(t *testing.T) {
	s := newTestServer(t, nil, Config{})
	repairBody := `{"tuples": [{"district": "hz", "area": "010", "postcode": "99999"}]}`

	w := do(s, "POST", "/v1/repair", repairBody)
	var before RepairResponse
	decode(t, w, &before)
	if before.RulesVersion != 1 || before.Covered != 0 || len(before.Fixes) != 0 {
		t.Fatalf("empty rule set proposed fixes: %+v", before)
	}

	data, err := rulesio.Export(s.p, []core.MinedRule{districtRule()})
	if err != nil {
		t.Fatal(err)
	}
	w = do(s, "PUT", "/v1/rules", string(data))
	if w.Code != http.StatusOK {
		t.Fatalf("PUT /v1/rules: status %d: %s", w.Code, w.Body)
	}
	var put struct {
		Version int64 `json:"version"`
		Count   int   `json:"count"`
	}
	decode(t, w, &put)
	if put.Version != 2 || put.Count != 1 {
		t.Fatalf("swap = %+v, want version 2 count 1", put)
	}

	w = do(s, "POST", "/v1/repair", repairBody)
	var after RepairResponse
	decode(t, w, &after)
	if after.RulesVersion != 2 {
		t.Errorf("post-swap rules_version = %d, want 2", after.RulesVersion)
	}
	if len(after.Fixes) != 1 || after.Fixes[0].New != "31200" {
		t.Errorf("post-swap repair did not use the new rules: %+v", after.Fixes)
	}

	w = do(s, "GET", "/v1/rules", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/rules: status %d", w.Code)
	}
	if got := w.Header().Get("X-Rules-Version"); got != "2" {
		t.Errorf("X-Rules-Version = %q, want 2", got)
	}
	var wire []rulesio.RuleJSON
	decode(t, w, &wire)
	if len(wire) != 1 || wire[0].Y != "postcode" {
		t.Errorf("exported active set = %+v", wire)
	}
	if w = do(s, "PUT", "/v1/rules", `[{"lhs": [["nosuch", "nosuch"]], "y": "postcode", "ym": "postcode"}]`); w.Code != http.StatusBadRequest {
		t.Errorf("bad rule upload: status %d, want 400", w.Code)
	}
	if v := s.rules().version; v != 2 {
		t.Errorf("failed swap advanced the active version to %d", v)
	}
}

// TestQueueSaturation pins one request inside the single worker slot and
// one in the single queue slot; the third must be rejected with 429
// immediately, and the held requests must still complete.
func TestQueueSaturation(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{RepairWorkers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	s.holdRepair = func() { <-gate }
	body := `{"tuples": [{"district": "hz", "area": "010"}]}`

	var wg sync.WaitGroup
	codes := make([]int, 2)
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = do(s, "POST", "/v1/repair", body).Code
		}()
	}
	// First request holds the single worker slot at the gate.
	launch(0)
	waitFor(t, "first request to hold the worker slot", func() bool {
		return s.metrics.inFlight.Load() == 1
	})
	// Second request occupies the one queue slot.
	launch(1)
	waitFor(t, "second request to queue", func() bool { return s.waiters.Load() == 1 })

	// Third request: queue full → 429, no waiting.
	if w := do(s, "POST", "/v1/repair", body); w.Code != http.StatusTooManyRequests {
		t.Errorf("saturated queue: status %d, want 429 (%s)", w.Code, w.Body)
	}
	if got := s.metrics.rejectedTotal.Load(); got != 1 {
		t.Errorf("rejected_total = %d, want 1", got)
	}

	close(gate)
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Errorf("held requests finished %v, want both 200", codes)
	}
}

// TestSharedIndexBuiltOnce is the acceptance check for cache sharing:
// eight concurrent repair batches over the same rule must build the
// rule's master index exactly once.
func TestSharedIndexBuiltOnce(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{RepairWorkers: 8})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"tuples": [{"district": "hz", "area": "0%d0"}, {"district": "cz", "area": "010", "postcode": "bad%d"}]}`, i%3+1, i)
			if w := do(s, "POST", "/v1/repair", body); w.Code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, w.Code, w.Body)
			}
		}(i)
	}
	wg.Wait()
	if got := s.metrics.indexBuilds.Load(); got != 1 {
		t.Errorf("index builds across 8 parallel requests = %d, want 1", got)
	}
	if got := s.p.IndexCache.Len(); got != 1 {
		t.Errorf("shared cache holds %d indexes, want 1", got)
	}
}

// TestJobLifecycle drives the full cycle: submit an asynchronous mining
// job with activation, watch it through queued/running to done, then
// repair with the rule set it installed.
func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, nil, Config{})
	// Park the job until the submit response has been checked: the
	// handler snapshots the job after queueing it, so a worker could
	// otherwise finish this tiny job before the 202 body is built.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	s.holdJob = func(string) { <-gate }
	w := do(s, "POST", "/v1/jobs", `{"method": "enuminerh3", "k": 5, "activate": true}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d: %s", w.Code, w.Body)
	}
	var st JobStatus
	decode(t, w, &st)
	if st.ID == "" || (st.State != JobQueued && st.State != JobRunning) {
		t.Fatalf("submitted job = %+v", st)
	}
	release()

	waitFor(t, "mining job to finish", func() bool {
		var cur JobStatus
		decode(t, do(s, "GET", "/v1/jobs/"+st.ID, ""), &cur)
		st = cur
		return cur.State == JobDone || cur.State == JobFailed
	})
	if st.State != JobDone {
		t.Fatalf("job = %+v", st)
	}
	if st.Rules == 0 || st.Explored == 0 {
		t.Errorf("done job mined %d rules exploring %d candidates", st.Rules, st.Explored)
	}
	if st.ActivatedVersion != 2 {
		t.Errorf("activated_version = %d, want 2", st.ActivatedVersion)
	}

	w = do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz", "area": "010", "postcode": "99999"}]}`)
	var resp RepairResponse
	decode(t, w, &resp)
	if resp.RulesVersion != 2 {
		t.Errorf("repair after job ran on version %d, want 2", resp.RulesVersion)
	}
	if len(resp.Fixes) != 1 || resp.Fixes[0].New != "31200" {
		t.Fatalf("mined rules did not repair the dirty tuple: %+v", resp.Fixes)
	}

	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	decode(t, do(s, "GET", "/v1/jobs", ""), &listing)
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != st.ID {
		t.Errorf("job listing = %+v", listing.Jobs)
	}
}

func TestJobQueueFullAndUnknownJob(t *testing.T) {
	s := newTestServer(t, nil, Config{JobWorkers: 1, JobQueue: 1})
	gate := make(chan struct{})
	s.holdJob = func(string) { <-gate }

	if w := do(s, "POST", "/v1/jobs", `{"method": "notaminer"}`); w.Code != http.StatusBadRequest {
		t.Errorf("unknown method: status %d, want 400", w.Code)
	}
	if w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`); w.Code != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", w.Code, w.Body)
	}
	waitFor(t, "job 1 to start running", func() bool {
		_, running := s.jobs.depths()
		return running == 1
	})
	if w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`); w.Code != http.StatusAccepted {
		t.Fatalf("job 2: status %d: %s", w.Code, w.Body)
	}
	if w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`); w.Code != http.StatusTooManyRequests {
		t.Errorf("job 3 with a full queue: status %d, want 429 (%s)", w.Code, w.Body)
	}
	if w := do(s, "GET", "/v1/jobs/job-99", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", w.Code)
	}

	close(gate)
	waitFor(t, "both jobs to finish", func() bool {
		queued, running := s.jobs.depths()
		return queued == 0 && running == 0
	})
	for _, id := range []string{"job-1", "job-2"} {
		var st JobStatus
		decode(t, do(s, "GET", "/v1/jobs/"+id, ""), &st)
		if st.State != JobDone {
			t.Errorf("%s = %+v, want done", id, st)
		}
	}
}

// TestGracefulShutdownDrain checks the drain contract: the running job
// finishes, the still-queued job is cancelled, and new requests are
// refused with 503 while draining.
func TestGracefulShutdownDrain(t *testing.T) {
	s, err := New(testProblem(t), []core.MinedRule{districtRule()}, Config{JobWorkers: 1, JobQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.holdJob = func(string) { <-gate }
	if w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`); w.Code != http.StatusAccepted {
		t.Fatalf("job 1: status %d", w.Code)
	}
	waitFor(t, "job 1 to start running", func() bool {
		_, running := s.jobs.depths()
		return running == 1
	})
	if w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`); w.Code != http.StatusAccepted {
		t.Fatalf("job 2: status %d", w.Code)
	}

	shutdownErr := make(chan error, 1)
	limit := make(chan struct{})
	time.AfterFunc(10*time.Second, func() { close(limit) })
	go func() { shutdownErr <- s.Shutdown(limit) }()
	waitFor(t, "server to enter drain mode", func() bool { return s.closed.Load() })

	// While draining: repairs and new jobs get 503, healthz reports it.
	if w := do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz"}]}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("repair while draining: status %d, want 503", w.Code)
	}
	if w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("job submit while draining: status %d, want 503", w.Code)
	}
	w := do(s, "GET", "/healthz", "")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "shutting_down") {
		t.Errorf("healthz while draining: %d %s", w.Code, w.Body)
	}

	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	var st1, st2 JobStatus
	decode(t, do(s, "GET", "/v1/jobs/job-1", ""), &st1)
	decode(t, do(s, "GET", "/v1/jobs/job-2", ""), &st2)
	if st1.State != JobDone {
		t.Errorf("running job drained to %q, want done", st1.State)
	}
	if st2.State != JobCancelled {
		t.Errorf("queued job drained to %q, want cancelled", st2.State)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	do(s, "POST", "/v1/repair", `{"tuples": [{"district": "bd", "area": "010"}]}`)

	w := do(s, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	var health struct {
		Status       string `json:"status"`
		RulesActive  int    `json:"rules_active"`
		RulesVersion int64  `json:"rules_version"`
	}
	decode(t, w, &health)
	if health.Status != "ok" || health.RulesActive != 1 || health.RulesVersion != 1 {
		t.Errorf("healthz = %+v", health)
	}

	w = do(s, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	body := w.Body.String()
	for _, line := range []string{
		// 3 = the repair, the healthz probe and this scrape itself.
		"erminerd_requests_total 3",
		"erminerd_repairs_applied_total 1",
		"erminerd_tuples_total 1",
		"erminerd_rules_active 1",
		"erminerd_rules_version 1",
		"erminerd_index_builds_total 1",
		"erminerd_repair_latency_p50_ms",
		"erminerd_repair_latency_p99_ms",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics output missing %q:\n%s", line, body)
		}
	}
}

// TestCloneProblemIsolation checks the mining-job contract: a clone
// shares no mutable state with the serving problem — interning into the
// clone must not leak into the serving dictionaries, and the clone gets
// a private index cache.
func TestCloneProblemIsolation(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	clone := s.cloneProblem()

	if clone.IndexCache == s.p.IndexCache {
		t.Fatal("clone shares the serving index cache")
	}
	if clone.Input.Pool() == s.p.Input.Pool() {
		t.Fatal("clone shares the serving dictionary pool")
	}
	if clone.Input.NumRows() != s.p.Input.NumRows() || clone.Master.NumRows() != s.p.Master.NumRows() {
		t.Fatalf("clone shape %d/%d, want %d/%d",
			clone.Input.NumRows(), clone.Master.NumRows(),
			s.p.Input.NumRows(), s.p.Master.NumRows())
	}
	for row := 0; row < clone.Input.NumRows(); row++ {
		want := strings.Join(s.p.Input.RowStrings(row), "|")
		if got := strings.Join(clone.Input.RowStrings(row), "|"); got != want {
			t.Fatalf("clone row %d = %q, want %q", row, got, want)
		}
	}

	clone.Input.Dict(2).Code("00000")
	if _, ok := s.p.Input.Dict(2).Lookup("00000"); ok {
		t.Error("interning into the clone leaked into the serving dictionaries")
	}
}

// TestRulesStageActivate drives the worker side of the cluster's
// two-phase rule push: staging parks a generation without touching the
// active set, activation must name the staged etag exactly, and the
// etag equals the content hash GET /v1/rules advertises afterwards.
func TestRulesStageActivate(t *testing.T) {
	s := newTestServer(t, nil, Config{})
	data, err := rulesio.Export(s.p, []core.MinedRule{districtRule()})
	if err != nil {
		t.Fatal(err)
	}

	w := do(s, "POST", "/v1/rules/stage", string(data))
	if w.Code != http.StatusOK {
		t.Fatalf("stage: status %d: %s", w.Code, w.Body)
	}
	var staged struct {
		ETag  string `json:"etag"`
		Count int    `json:"count"`
	}
	decode(t, w, &staged)
	if staged.Count != 1 || !strings.HasPrefix(staged.ETag, "sha256:") {
		t.Fatalf("stage response = %+v", staged)
	}
	if got := rulesio.Hash(data); staged.ETag != got {
		t.Errorf("staged etag %s, want content hash %s", staged.ETag, got)
	}

	// Staging must not activate: repairs still run the empty set.
	var mid RepairResponse
	decode(t, do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz", "area": "010"}]}`), &mid)
	if mid.RulesVersion != 1 || mid.Covered != 0 {
		t.Fatalf("staging touched the active set: %+v", mid)
	}

	// Activation is exact-match on the generation id.
	if w := do(s, "POST", "/v1/rules/activate", `{"etag": "sha256:wrong"}`); w.Code != http.StatusConflict {
		t.Fatalf("wrong-etag activate: status %d, want 409", w.Code)
	}
	// The mismatch consumed the staged set; re-stage and activate.
	do(s, "POST", "/v1/rules/stage", string(data))
	w = do(s, "POST", "/v1/rules/activate", `{"etag": "`+staged.ETag+`"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("activate: status %d: %s", w.Code, w.Body)
	}
	var act struct {
		Version int64  `json:"version"`
		Count   int    `json:"count"`
		ETag    string `json:"etag"`
	}
	decode(t, w, &act)
	if act.Version != 2 || act.Count != 1 || act.ETag != staged.ETag {
		t.Fatalf("activate response = %+v", act)
	}
	if got := s.RulesETag(); got != staged.ETag {
		t.Errorf("RulesETag = %s, want %s", got, staged.ETag)
	}

	var after RepairResponse
	decode(t, do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz", "area": "010", "postcode": "9"}]}`), &after)
	if after.RulesVersion != 2 || len(after.Fixes) != 1 {
		t.Fatalf("activated rules not serving: %+v", after)
	}

	w = do(s, "GET", "/v1/rules", "")
	if got := w.Header().Get("ETag"); got != `"`+staged.ETag+`"` {
		t.Errorf("GET /v1/rules ETag = %s, want %q", got, staged.ETag)
	}
	if got := rulesio.Hash(w.Body.Bytes()); got != staged.ETag {
		t.Errorf("served body hashes to %s, want %s (export is not canonical)", got, staged.ETag)
	}
	var health struct {
		ETag string `json:"rules_etag"`
	}
	decode(t, do(s, "GET", "/healthz", ""), &health)
	if health.ETag != staged.ETag {
		t.Errorf("healthz rules_etag = %s, want %s", health.ETag, staged.ETag)
	}

	// Activating with nothing staged is a conflict, not a crash.
	if w := do(s, "POST", "/v1/rules/activate", `{"etag": "`+staged.ETag+`"}`); w.Code != http.StatusConflict {
		t.Errorf("activate with empty stage: status %d, want 409", w.Code)
	}
}

// TestStagedRejectedOnBadRules: a stage of an unimportable file must
// fail without parking anything.
func TestStagedRejectedOnBadRules(t *testing.T) {
	s := newTestServer(t, nil, Config{})
	w := do(s, "POST", "/v1/rules/stage", `[{"lhs": [["nosuch", "nosuch"]], "y": "postcode", "ym": "postcode"}]`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad stage: status %d, want 400", w.Code)
	}
	s.stagedMu.Lock()
	parked := s.staged
	s.stagedMu.Unlock()
	if parked != nil {
		t.Error("failed stage left a generation parked")
	}
}

// TestMetricsPerEndpointInFlight pins the per-endpoint gauges: a repair
// parked inside the handler shows up in the repair gauge only.
func TestMetricsPerEndpointInFlight(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	gate := make(chan struct{})
	s.holdRepair = func() { <-gate }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz", "area": "010"}]}`)
	}()
	waitFor(t, "repair to park in the handler", func() bool {
		return s.metrics.inFlightRepair.Load() == 1
	})
	body := do(s, "GET", "/metrics", "").Body.String()
	for _, line := range []string{
		"erminerd_requests_in_flight_repair 1",
		"erminerd_requests_in_flight_validate 0",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics output missing %q:\n%s", line, body)
		}
	}
	close(gate)
	wg.Wait()
	if got := s.metrics.inFlightRepair.Load(); got != 0 {
		t.Errorf("in-flight repair gauge = %d after completion, want 0", got)
	}
}

// TestLatencyObservedOnFailures pins the histogram fix: 4xx outcomes
// are counted in the latency window, not silently dropped.
func TestLatencyObservedOnFailures(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	if w := do(s, "POST", "/v1/repair", `{"tuples": []}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", w.Code)
	}
	if w := do(s, "POST", "/v1/validate", `{"bogus": 1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad validate: status %d, want 400", w.Code)
	}
	if _, _, n := s.metrics.lat.Percentiles(); n != 2 {
		t.Errorf("latency observations after two 4xx requests = %d, want 2", n)
	}
	if !strings.Contains(do(s, "GET", "/metrics", "").Body.String(), "erminerd_repair_latency_count 2") {
		t.Error("metrics output missing erminerd_repair_latency_count 2")
	}
}
