package cluster

// The suite stands up real worker daemons (internal/serve servers on
// httptest listeners) behind a coordinator and pins the subsystem's
// core contract: whatever the fleet answers is byte-identical to what
// one single-node erminerd holding the whole batch would have answered
// — at worker counts 1, 2 and 4, and with a worker killed mid-batch.
// Health checking is driven explicitly (HealthInterval < 0) so the
// tests are deterministic.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/rule"
	"erminer/internal/rulesio"
	"erminer/internal/schema"
	"erminer/internal/serve"
)

// clusterProblem mirrors the serve suite's district/area → postcode
// fixture. Every worker (and the single-node reference) gets its own
// instance: replicas share nothing in-process, exactly like separate
// daemons.
func clusterProblem(t testing.TB) *core.Problem {
	t.Helper()
	return clusterProblemWith(t, map[string]string{"hz": "31200", "bd": "45000", "cz": "52000"})
}

// clusterProblemWith is clusterProblem with each district's postcode
// given.
func clusterProblemWith(t testing.TB, postcode map[string]string) *core.Problem {
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

func districtRule() core.MinedRule {
	return core.MinedRule{
		Rule:     rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 2, nil),
		Measures: measure.Measures{Support: 9, Certainty: 1, Quality: 1, Utility: 9.65},
	}
}

// districtAreaRule is a second, distinct generation for push tests.
func districtAreaRule() core.MinedRule {
	return core.MinedRule{
		Rule:     rule.New([]rule.AttrPair{{Input: 0, Master: 0}, {Input: 1, Master: 1}}, 2, 2, nil),
		Measures: measure.Measures{Support: 9, Certainty: 1, Quality: 1, Utility: 9.0},
	}
}

// newWorker boots one worker daemon on a live listener, optionally
// wrapped (chaos / fault injection).
func newWorker(t *testing.T, wrap func(http.Handler) http.Handler) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(clusterProblem(t), []core.MinedRule{districtRule()}, serve.Config{Role: "worker"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		if err := s.Shutdown(done); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	var h http.Handler = s
	if wrap != nil {
		h = wrap(s)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return s, ts
}

func newFleet(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		_, ts := newWorker(t, nil)
		urls[i] = ts.URL
	}
	return urls
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // tests drive checkAll explicitly
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		if err := c.Shutdown(done); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
	})
	return c
}

func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
}

// byteBatch is a 12-tuple batch mixing repairs, violations, missing
// values, an uncovered district, an empty tuple and duplicates, so the
// partition spreads real work across every worker.
const byteBatch = `{"tuples": [
	{"district": "hz", "area": "010", "postcode": "99999"},
	{"district": "bd", "area": "020"},
	{"district": "zz", "area": "010", "postcode": "1"},
	{"district": "cz", "area": "030", "postcode": "52000"},
	{"district": "hz", "area": "020", "postcode": ""},
	{"district": "bd", "area": "010", "postcode": "45000"},
	{},
	{"district": "cz", "area": "010", "postcode": "11111"},
	{"district": "hz", "area": "030"},
	{"district": "bd", "area": "030", "postcode": "22222"},
	{"district": "cz", "area": "020"},
	{"district": "hz", "area": "010", "postcode": "99999"}
]}`

func variants(base string) map[string]string {
	return map[string]string{
		"plain":        base,
		"explain":      strings.Replace(base, `{"tuples"`, `{"explain": true, "tuples"`, 1),
		"only_missing": strings.Replace(base, `{"tuples"`, `{"only_missing": true, "tuples"`, 1),
	}
}

// TestByteIdenticalResponses is the subsystem's acceptance test: for
// worker counts 1, 2 and 4, the coordinator's merged /v1/repair and
// /v1/validate responses are byte-for-byte what a single-node daemon
// answers for the same batch.
func TestByteIdenticalResponses(t *testing.T) {
	single, err := serve.New(clusterProblem(t), []core.MinedRule{districtRule()}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		//ermvet:ignore errdrop test cleanup; Shutdown errors surface through the failing test itself
		single.Shutdown(done)
	}()

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := newCoordinator(t, Config{Workers: newFleet(t, workers)})
			for _, path := range []string{serve.PathRepair, serve.PathValidate} {
				for name, body := range variants(byteBatch) {
					want := do(single, "POST", path, body)
					got := do(c, "POST", path, body)
					if want.Code != http.StatusOK {
						t.Fatalf("%s %s: single-node answered %d: %s", path, name, want.Code, want.Body.String())
					}
					if got.Code != want.Code {
						t.Fatalf("%s %s: coordinator answered %d, single-node %d", path, name, got.Code, want.Code)
					}
					if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Errorf("%s %s: merged response is not byte-identical to single-node\ncoordinator: %s\nsingle-node: %s",
							path, name, got.Body.String(), want.Body.String())
					}
				}
			}
		})
	}
}

// chaosHandler fronts a worker and can be "killed": once dead, every
// connection is aborted mid-response, which is what a SIGKILLed worker
// looks like from the coordinator (reset/EOF, then connection refused).
// The kill trigger is one-shot so a revived worker stays up.
type chaosHandler struct {
	inner  http.Handler
	dead   atomic.Bool
	armed  atomic.Bool
	killOn func(*http.Request) bool
	served atomic.Int64
}

func (h *chaosHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if h.killOn != nil && h.killOn(r) && h.armed.CompareAndSwap(true, false) {
		h.dead.Store(true)
		panic(http.ErrAbortHandler)
	}
	h.served.Add(1)
	h.inner.ServeHTTP(w, r)
}

// TestChaosWorkerKillMidBatch kills one of two workers on its first
// repair sub-batch. The coordinator must burn the pinned worker's retry
// budget, hedge the sub-batch to the survivor, and still produce the
// byte-identical single-node response; the registry and metrics must
// show the casualty. Reviving the worker and running a health round
// restores full fan-out.
func TestChaosWorkerKillMidBatch(t *testing.T) {
	single, err := serve.New(clusterProblem(t), []core.MinedRule{districtRule()}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		//ermvet:ignore errdrop test cleanup; Shutdown errors surface through the failing test itself
		single.Shutdown(done)
	}()

	chaos := &chaosHandler{killOn: func(r *http.Request) bool {
		return r.Method == http.MethodPost && r.URL.Path == serve.PathRepair
	}}
	chaos.armed.Store(true)
	_, ts0 := newWorker(t, nil)
	_, ts1 := newWorker(t, func(inner http.Handler) http.Handler {
		chaos.inner = inner
		return chaos
	})
	c := newCoordinator(t, Config{
		Workers:      []string{ts0.URL, ts1.URL},
		Retries:      1,
		RetryBackoff: 2 * time.Millisecond,
	})

	want := do(single, "POST", serve.PathRepair, byteBatch)
	got := do(c, "POST", serve.PathRepair, byteBatch)
	if got.Code != http.StatusOK {
		t.Fatalf("repair with a killed worker answered %d: %s", got.Code, got.Body.String())
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("merged response after mid-batch worker kill is not byte-identical\ncoordinator: %s\nsingle-node: %s",
			got.Body.String(), want.Body.String())
	}
	if n := c.metrics.redispatches.Load(); n < 1 {
		t.Errorf("redispatches = %d, want >= 1 (the killed worker's sub-batch must hedge)", n)
	}
	if n := c.metrics.retriesTotal.Load(); n < 1 {
		t.Errorf("retriesTotal = %d, want >= 1 (the pinned worker gets its retry budget first)", n)
	}
	if c.reg.routable(1) {
		t.Error("worker 1 still marked alive after exhausting its dispatch budget")
	}

	var health struct {
		Status         string `json:"status"`
		WorkersHealthy int    `json:"workers_healthy"`
	}
	w := do(c, "GET", serve.PathHealthz, "")
	decode(t, w, &health)
	if health.Status != "degraded" || health.WorkersHealthy != 1 {
		t.Errorf("healthz after kill = %+v, want degraded with 1 healthy worker", health)
	}

	// Revive the worker; the next health round must put it back in the
	// rotation and fan-out must resume byte-identically.
	chaos.dead.Store(false)
	c.checkAll()
	if !c.reg.routable(1) {
		t.Fatal("worker 1 not marked alive after revival health round")
	}
	before := chaos.served.Load()
	got = do(c, "POST", serve.PathRepair, byteBatch)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Error("merged response after worker revival is not byte-identical to single-node")
	}
	if chaos.served.Load() == before {
		t.Error("revived worker served no sub-batch; fan-out did not resume")
	}
}

// TestCancelledRequestKeepsWorkersAlive cancels a repair while both
// workers are still working on their sub-batches. The request ended,
// not the workers: neither may be marked dead, counted as failed or
// hedged around.
func TestCancelledRequestKeepsWorkersAlive(t *testing.T) {
	var served atomic.Int64
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		// The server notices the client hang up only once the body is
		// read; until then r.Context() would never end.
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			t.Errorf("reading the sub-batch: %v", err)
		}
		<-r.Context().Done()
	})
	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewServer(slow)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	c := newCoordinator(t, Config{Workers: urls, Retries: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	req := httptest.NewRequest("POST", serve.PathRepair, strings.NewReader(byteBatch)).WithContext(ctx)
	w := httptest.NewRecorder()
	c.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Fatalf("cancelled repair answered 200: %s", w.Body.String())
	}
	if n := served.Load(); n != 2 {
		t.Errorf("workers saw %d sub-batches, want 2 (one each, no hedge)", n)
	}
	for i := range urls {
		if !c.reg.routable(i) {
			t.Errorf("worker %d marked dead by a cancelled request", i)
		}
	}
	if n := c.metrics.workerFailures.Load(); n != 0 {
		t.Errorf("workerFailures = %d, want 0", n)
	}
	if n := c.metrics.redispatches.Load(); n != 0 {
		t.Errorf("redispatches = %d, want 0", n)
	}
}

// TestTwoPhaseRulePush pins the replication contract: one PUT on the
// coordinator stages and activates the same generation on every worker,
// leaving zero generation skew, and the fleet then serves under the new
// generation byte-identically to a single node holding it.
func TestTwoPhaseRulePush(t *testing.T) {
	urls := newFleet(t, 2)
	c := newCoordinator(t, Config{Workers: urls, RetryBackoff: 2 * time.Millisecond})

	data, err := rulesio.Export(clusterProblem(t), []core.MinedRule{districtRule(), districtAreaRule()})
	if err != nil {
		t.Fatal(err)
	}
	w := do(c, "PUT", serve.PathRules, string(data))
	if w.Code != http.StatusOK {
		t.Fatalf("PUT /v1/rules: %d: %s", w.Code, w.Body.String())
	}
	var put struct {
		Version int64  `json:"version"`
		Count   int    `json:"count"`
		ETag    string `json:"etag"`
	}
	decode(t, w, &put)
	if put.Count != 2 || put.Version != 2 || !strings.HasPrefix(put.ETag, "sha256:") {
		t.Fatalf("push answered %+v, want count=2 version=2 and a sha256 etag", put)
	}

	// Every worker must now serve exactly that generation.
	for i, u := range urls {
		resp, err := http.Get(u + serve.PathRules)
		if err != nil {
			t.Fatal(err)
		}
		etag := resp.Header.Get("ETag")
		//ermvet:ignore errdrop test teardown of a fully-read response body
		resp.Body.Close()
		if etag != `"`+put.ETag+`"` {
			t.Errorf("worker %d serves ETag %s, want %q", i, etag, put.ETag)
		}
	}
	c.checkAll()
	if skew := c.reg.generationSkew(); skew != 1 {
		t.Errorf("generation skew after push = %d, want 1", skew)
	}

	// The fleet under the new generation still matches a single node
	// under the same generation.
	single, err := serve.New(clusterProblem(t), []core.MinedRule{districtRule()}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		//ermvet:ignore errdrop test cleanup; Shutdown errors surface through the failing test itself
		single.Shutdown(done)
	}()
	if _, _, err := single.SwapRules(data); err != nil {
		t.Fatal(err)
	}
	want := do(single, "POST", serve.PathRepair, byteBatch)
	got := do(c, "POST", serve.PathRepair, byteBatch)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("post-push merged response is not byte-identical\ncoordinator: %s\nsingle-node: %s",
			got.Body.String(), want.Body.String())
	}
}

// TestStageFailureAbortsPush wedges phase one on one worker and checks
// the push fails without ANY worker activating: the healthy worker that
// staged successfully must keep serving the old generation.
func TestStageFailureAbortsPush(t *testing.T) {
	_, ts0 := newWorker(t, nil)
	_, ts1 := newWorker(t, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == serve.PathRulesStage {
				http.Error(w, `{"error":"disk full"}`, http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		})
	})
	c := newCoordinator(t, Config{
		Workers:      []string{ts0.URL, ts1.URL},
		Retries:      1,
		RetryBackoff: 2 * time.Millisecond,
	})

	resp, err := http.Get(ts0.URL + serve.PathRules)
	if err != nil {
		t.Fatal(err)
	}
	oldETag := resp.Header.Get("ETag")
	//ermvet:ignore errdrop test teardown of a fully-read response body
	resp.Body.Close()

	data, err := rulesio.Export(clusterProblem(t), []core.MinedRule{districtRule(), districtAreaRule()})
	if err != nil {
		t.Fatal(err)
	}
	w := do(c, "PUT", serve.PathRules, string(data))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("PUT with a wedged stage answered %d, want 502: %s", w.Code, w.Body.String())
	}
	if n := c.metrics.rulePushes.Load(); n != 0 {
		t.Errorf("rulePushes = %d after an aborted push, want 0", n)
	}

	resp, err = http.Get(ts0.URL + serve.PathRules)
	if err != nil {
		t.Fatal(err)
	}
	newETag := resp.Header.Get("ETag")
	//ermvet:ignore errdrop test teardown of a fully-read response body
	resp.Body.Close()
	if newETag != oldETag {
		t.Errorf("healthy worker's generation moved from %s to %s despite the aborted push", oldETag, newETag)
	}
}

// TestBadRulesFileRelays400 pins the passthrough path: a rules file the
// workers reject 400s straight through the coordinator, and nothing
// activates.
func TestBadRulesFileRelays400(t *testing.T) {
	c := newCoordinator(t, Config{Workers: newFleet(t, 2), RetryBackoff: 2 * time.Millisecond})
	w := do(c, "PUT", serve.PathRules, `{"not": "a rules file"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("PUT with garbage answered %d, want the workers' 400 relayed: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "error") {
		t.Errorf("relayed 400 body %q is not the worker's error shape", w.Body.String())
	}
}

// TestGenerationSkewDetection drives one worker's generation ahead
// behind the coordinator's back and checks the health round reports the
// skew, and that a mixed-generation batch fails loudly rather than
// merging rows evaluated under different rule sets.
func TestGenerationSkewDetection(t *testing.T) {
	urls := newFleet(t, 2)
	c := newCoordinator(t, Config{Workers: urls, Retries: -1, RetryBackoff: 2 * time.Millisecond})
	c.checkAll()
	if skew := c.reg.generationSkew(); skew != 1 {
		t.Fatalf("initial generation skew = %d, want 1", skew)
	}

	data, err := rulesio.Export(clusterProblem(t), []core.MinedRule{districtRule(), districtAreaRule()})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, urls[1]+serve.PathRules, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	//ermvet:ignore errdrop test teardown of a fully-read response body
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct worker push answered %d", resp.StatusCode)
	}

	c.checkAll()
	if skew := c.reg.generationSkew(); skew != 2 {
		t.Errorf("generation skew after side push = %d, want 2", skew)
	}
	var health struct {
		GenerationSkew int `json:"generation_skew"`
	}
	decode(t, do(c, "GET", serve.PathHealthz, ""), &health)
	if health.GenerationSkew != 2 {
		t.Errorf("healthz generation_skew = %d, want 2", health.GenerationSkew)
	}
	if !strings.Contains(do(c, "GET", serve.PathMetrics, "").Body.String(), "ermcluster_generation_skew 2") {
		t.Error("metrics missing ermcluster_generation_skew 2")
	}

	// A batch whose sub-batches land on both workers now mixes rule
	// generations; the merge must refuse.
	w := do(c, "POST", serve.PathRepair, byteBatch)
	if w.Code != http.StatusBadGateway {
		t.Errorf("mixed-generation batch answered %d, want 502: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "different rule generations") {
		t.Errorf("mixed-generation error body %q does not name the cause", w.Body.String())
	}
}

// swappableWorker is a worker daemon whose handler a test can swap: a
// fresh server stands in for the daemon restarted on the same address.
type swappableWorker struct {
	url string
	h   atomic.Value // handlerBox
}

// handlerBox gives every handler stored in a swappableWorker one
// concrete type, as atomic.Value requires.
type handlerBox struct{ http.Handler }

func newSwappableWorker(t *testing.T) *swappableWorker {
	t.Helper()
	sw := &swappableWorker{}
	_, ts := newWorker(t, func(inner http.Handler) http.Handler {
		sw.h.Store(handlerBox{inner})
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw.h.Load().(handlerBox).ServeHTTP(w, r)
		})
	})
	sw.url = ts.URL
	return sw
}

// restart replaces the worker by a fresh daemon on its startup rules.
func (sw *swappableWorker) restart(t *testing.T) {
	sw.h.Store(handlerBox{newSingle(t, serve.Config{Role: "worker"})})
}

// kill makes the worker drop every connection unanswered until revive
// is called.
func (sw *swappableWorker) kill() (revive func()) {
	live := sw.h.Load()
	sw.h.Store(handlerBox{http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})})
	return func() { sw.h.Store(live) }
}

// newSingle boots a daemon on the startup rules and activates each
// rules file of pushes in turn, so its rules_version counts the same
// pushes a fleet saw.
func newSingle(t *testing.T, cfg serve.Config, pushes ...[]byte) *serve.Server {
	t.Helper()
	s, err := serve.New(clusterProblem(t), []core.MinedRule{districtRule()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		//ermvet:ignore errdrop test cleanup; Shutdown errors surface through the failing test itself
		s.Shutdown(done)
	})
	for _, data := range pushes {
		if _, _, err := s.SwapRules(data); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func exportRules(t *testing.T, rules ...core.MinedRule) []byte {
	t.Helper()
	data, err := rulesio.Export(clusterProblem(t), rules)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func pushRules(t *testing.T, c *Coordinator, data []byte) serve.RulesAck {
	t.Helper()
	w := do(c, "PUT", serve.PathRules, string(data))
	if w.Code != http.StatusOK {
		t.Fatalf("PUT /v1/rules: %d: %s", w.Code, w.Body.String())
	}
	var ack serve.RulesAck
	decode(t, w, &ack)
	return ack
}

// fleetHealth is the part of a coordinator's /healthz the generation
// tests read.
type fleetHealth struct {
	Status         string         `json:"status"`
	WorkersHealthy int            `json:"workers_healthy"`
	RulesETag      string         `json:"rules_etag"`
	Workers        []WorkerStatus `json:"workers"`
}

func coordinatorHealth(t *testing.T, c *Coordinator) fleetHealth {
	t.Helper()
	var h fleetHealth
	decode(t, do(c, "GET", serve.PathHealthz, ""), &h)
	return h
}

// oneTupleBatch is a repair batch of one fixture tuple that a two-worker
// fleet pins to shard.
func oneTupleBatch(t *testing.T, shard int) string {
	t.Helper()
	for _, tu := range []map[string]string{
		{"district": "hz", "area": "010", "postcode": "99999"},
		{"district": "bd", "area": "020"},
		{"district": "cz", "area": "030", "postcode": "52000"},
		{"district": "hz", "area": "020", "postcode": ""},
		{"district": "bd", "area": "010", "postcode": "45000"},
		{"district": "cz", "area": "010", "postcode": "11111"},
	} {
		if shardOf(tu, 2) == shard {
			b, err := json.Marshal(serve.TupleBatch{Tuples: []map[string]string{tu}})
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
	}
	t.Fatalf("no fixture tuple falls on shard %d", shard)
	return ""
}

// checkShard requires c to answer shard's one-tuple batch with 200 and
// single's bytes, and returns the answer's rules_version.
func checkShard(t *testing.T, c, single http.Handler, when string, shard int) int64 {
	t.Helper()
	body := oneTupleBatch(t, shard)
	want := do(single, "POST", serve.PathRepair, body)
	got := do(c, "POST", serve.PathRepair, body)
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s, shard %d: coordinator answered %d %s\nsingle node: %s", when, shard, got.Code, got.Body.String(), want.Body.String())
	}
	var rr serve.RepairResponse
	decode(t, got, &rr)
	return rr.RulesVersion
}

// TestRestartedWorkerRoutedAround pushes a generation through the
// coordinator, restarts worker 1 from its startup rules, and runs one
// health round: the restarted worker is alive but stale, so a
// one-tuple batch pinned to either shard must be answered by worker 0,
// under the pushed generation, with a single node's bytes, and /healthz
// must name both etags. The next push makes worker 1 routable again.
func TestRestartedWorkerRoutedAround(t *testing.T) {
	w0, w1 := newSwappableWorker(t), newSwappableWorker(t)
	c := newCoordinator(t, Config{Workers: []string{w0.url, w1.url}, Retries: -1, RetryBackoff: 2 * time.Millisecond})
	data := exportRules(t, districtRule(), districtAreaRule())
	put := pushRules(t, c, data)

	w1.restart(t)
	c.checkAll()
	health := coordinatorHealth(t, c)
	s1 := health.Workers[1]
	if health.Status != "degraded" || health.WorkersHealthy != 1 || health.RulesETag != put.ETag ||
		!s1.Alive || s1.RulesETag == put.ETag || !strings.Contains(s1.LastError, s1.RulesETag) || !strings.Contains(s1.LastError, put.ETag) {
		t.Errorf("healthz after the restart = %+v, want degraded with 1 healthy, rules_etag %s and worker 1 alive with a last error naming both etags", health, put.ETag)
	}

	single := newSingle(t, serve.Config{}, data)
	for shard := 0; shard < 2; shard++ {
		if v := checkShard(t, c, single, "worker 1 stale", shard); v != put.Version {
			t.Errorf("worker 1 stale, shard %d: rules_version %d, want the pushed %d", shard, v, put.Version)
		}
	}
	if n := c.metrics.redispatches.Load(); n != 1 {
		t.Errorf("redispatches = %d, want 1: the stale worker's one sub-batch goes straight to worker 0", n)
	}

	// The restarted worker's version counter now lags its peer's, so
	// only the routing is checked here, not the bytes.
	pushRules(t, c, data)
	if !c.reg.routable(1) {
		t.Fatal("worker 1 still stale after a push activated a generation on it")
	}
	if got := do(c, "POST", serve.PathRepair, oneTupleBatch(t, 1)); got.Code != http.StatusOK {
		t.Fatalf("after the second push, shard 1 answered %d: %s", got.Code, got.Body.String())
	}
	if n := c.metrics.redispatches.Load(); n != 1 {
		t.Errorf("redispatches = %d after the second push, want still 1: worker 1 serves its own shard again", n)
	}
}

// TestFleetMovedWithoutCoordinator pushes one generation through
// coordinator a and then another through coordinator b over the same
// fleet. a's next health round must follow the fleet to b's generation
// and answer like a single node on it, not route around every worker.
// A worker then restarted on its startup rules is stale under that
// generation; once the last live worker on it dies, the stale worker
// serves every shard, within the same request, until that worker is
// back.
func TestFleetMovedWithoutCoordinator(t *testing.T) {
	w0, w1 := newSwappableWorker(t), newSwappableWorker(t)
	cfg := Config{Workers: []string{w0.url, w1.url}, Retries: -1, RetryBackoff: 2 * time.Millisecond}
	a, b := newCoordinator(t, cfg), newCoordinator(t, cfg)
	first, second := exportRules(t, districtRule(), districtAreaRule()), exportRules(t, districtAreaRule())
	pushRules(t, a, first)
	put := pushRules(t, b, second)

	a.checkAll()
	if h := coordinatorHealth(t, a); h.Status != "ok" || h.WorkersHealthy != 2 || h.RulesETag != put.ETag {
		t.Errorf("a's healthz after b's push = %+v, want ok with 2 healthy and rules_etag %s", h, put.ETag)
	}
	single := newSingle(t, serve.Config{}, first, second)
	for shard := 0; shard < 2; shard++ {
		if v := checkShard(t, a, single, "after b's push", shard); v != put.Version {
			t.Errorf("after b's push, shard %d: rules_version %d, want b's %d", shard, v, put.Version)
		}
	}

	w1.restart(t)
	a.checkAll()
	if a.reg.routable(1) {
		t.Error("worker 1 routable on its startup rules while worker 0 serves the activated generation")
	}
	for shard := 0; shard < 2; shard++ {
		checkShard(t, a, single, "worker 1 restarted", shard)
	}

	// Shard 1 goes first: its stale pinned worker is skipped, worker 0
	// fails, and the ring ends back at worker 1, now the only live one.
	revive := w0.kill()
	startup := newSingle(t, serve.Config{})
	for _, shard := range []int{1, 0} {
		checkShard(t, a, startup, "worker 0 dead", shard)
	}
	a.checkAll()
	if h := coordinatorHealth(t, a); h.Status != "degraded" || h.WorkersHealthy != 1 {
		t.Errorf("a's healthz with worker 0 dead = %+v, want degraded with 1 healthy", h)
	}

	// The round with worker 0 down adopted nothing, so worker 1 is stale
	// again as soon as worker 0 is back on b's generation.
	revive()
	a.checkAll()
	for shard := 0; shard < 2; shard++ {
		checkShard(t, a, single, "worker 0 revived", shard)
	}
}

// TestPartitionDeterminism pins the shard function: stable across calls
// (map iteration order must not leak in), full coverage, and sub-batch
// relative order preserving input order.
func TestPartitionDeterminism(t *testing.T) {
	tuples := make([]map[string]string, 50)
	for i := range tuples {
		tuples[i] = map[string]string{
			"district": fmt.Sprintf("d%d", i%7),
			"area":     fmt.Sprintf("a%d", i%11),
			"postcode": fmt.Sprintf("%d", i),
		}
	}
	for _, n := range []int{1, 2, 4, 7} {
		first := partition(tuples, n)
		for round := 0; round < 5; round++ {
			again := partition(tuples, n)
			for w := range first {
				if fmt.Sprint(again[w]) != fmt.Sprint(first[w]) {
					t.Fatalf("n=%d: partition is not deterministic: %v vs %v", n, first[w], again[w])
				}
			}
		}
		seen := make(map[int]bool)
		for _, part := range first {
			last := -1
			for _, idx := range part {
				if idx <= last {
					t.Fatalf("n=%d: sub-batch %v does not preserve input order", n, part)
				}
				last = idx
				if seen[idx] {
					t.Fatalf("n=%d: tuple %d assigned twice", n, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != len(tuples) {
			t.Fatalf("n=%d: partition covered %d of %d tuples", n, len(seen), len(tuples))
		}
	}
}

// TestCoordinatorRequestValidation pins the coordinator-side 400s,
// which must be indistinguishable from a worker's: byte for byte what a
// single node with the same MaxBatch answers.
func TestCoordinatorRequestValidation(t *testing.T) {
	c := newCoordinator(t, Config{Workers: newFleet(t, 1), MaxBatch: 2})
	single := singleNode(t, serve.Config{MaxBatch: 2})
	for _, tc := range []struct {
		body, wantErr string
	}{
		{`{"tuples": []}`, "empty tuple batch"},
		{`{"tuples": [{}, {}, {}]}`, "batch of 3 tuples exceeds the 2 limit"},
		{`{"tuples": [{}], "bogus": 1}`, "bad request body"},
		{`not json`, "bad request body"},
	} {
		for _, path := range []string{serve.PathRepair, serve.PathValidate} {
			w := do(c, "POST", path, tc.body)
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.wantErr) {
				t.Errorf("%s %q answered %d %q, want 400 containing %q", path, tc.body, w.Code, w.Body.String(), tc.wantErr)
			}
			if want := do(single, "POST", path, tc.body); w.Code != want.Code || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s %q: coordinator answered %d %q, single node %d %q", path, tc.body, w.Code, w.Body, want.Code, want.Body)
			}
		}
	}
}

func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no workers succeeded")
	}
	if _, err := New(Config{Workers: []string{"not a url"}, HealthInterval: -1}); err == nil {
		t.Error("New with a relative worker URL succeeded")
	}
}

// TestRulesGetProxies checks GET /v1/rules relays a healthy worker's
// body and generation headers.
func TestRulesGetProxies(t *testing.T) {
	urls := newFleet(t, 2)
	c := newCoordinator(t, Config{Workers: urls})
	resp, err := http.Get(urls[0] + serve.PathRules)
	if err != nil {
		t.Fatal(err)
	}
	var wantBody bytes.Buffer
	if _, err := wantBody.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	wantETag := resp.Header.Get("ETag")
	//ermvet:ignore errdrop test teardown of a fully-read response body
	resp.Body.Close()

	w := do(c, "GET", serve.PathRules, "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/rules: %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), wantBody.Bytes()) {
		t.Error("proxied rule set differs from the worker's")
	}
	if w.Header().Get("ETag") != wantETag {
		t.Errorf("proxied ETag %q, want %q", w.Header().Get("ETag"), wantETag)
	}
}

// TestShutdownDrains checks Shutdown stops the health loop and flips
// the API to 503.
func TestShutdownDrains(t *testing.T) {
	c, err := New(Config{Workers: newFleet(t, 1), HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	time.AfterFunc(10*time.Second, func() { close(done) })
	if err := c.Shutdown(done); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if w := do(c, "POST", serve.PathRepair, byteBatch); w.Code != http.StatusServiceUnavailable {
		t.Errorf("repair after Shutdown answered %d, want 503", w.Code)
	}
	var health struct {
		Status string `json:"status"`
	}
	w := do(c, "GET", serve.PathHealthz, "")
	decode(t, w, &health)
	if w.Code != http.StatusServiceUnavailable || health.Status != "shutting_down" {
		t.Errorf("healthz after Shutdown = %d %q, want 503 shutting_down", w.Code, health.Status)
	}
	// Second Shutdown is a no-op, not a double-close panic.
	if err := c.Shutdown(done); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestMetricsShape scrapes the coordinator after traffic and checks the
// ermcluster_ surface is present and counting.
func TestMetricsShape(t *testing.T) {
	c := newCoordinator(t, Config{Workers: newFleet(t, 2)})
	do(c, "POST", serve.PathRepair, byteBatch)
	do(c, "POST", serve.PathValidate, byteBatch)
	body := do(c, "GET", serve.PathMetrics, "").Body.String()
	for _, want := range []string{
		"ermcluster_requests_total ",
		"ermcluster_requests_in_flight_repair 0",
		"ermcluster_requests_in_flight_validate 0",
		"ermcluster_tuples_total 24",
		"ermcluster_workers_total 2",
		"ermcluster_workers_healthy 2",
		"ermcluster_subbatches_total ",
		"ermcluster_redispatches_total 0",
		"ermcluster_rule_pushes_total 0",
		"ermcluster_repair_latency_count 2",
		"ermcluster_repair_latency_p50_ms ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestInvalidUTF8ByteIdentical serves master postcodes that are not
// valid UTF-8. A worker's encoder writes each bad byte as a \ufffd
// escape, exactly as a single node does, and the merged response must
// keep those bytes: decoding and re-encoding them would turn each
// escape into a raw U+FFFD.
func TestInvalidUTF8ByteIdentical(t *testing.T) {
	postcode := map[string]string{"hz": "31\xff00", "bd": "45000", "cz": "\xc3"}
	boot := func() *serve.Server {
		s, err := serve.New(clusterProblemWith(t, postcode), []core.MinedRule{districtRule()}, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			done := make(chan struct{})
			time.AfterFunc(10*time.Second, func() { close(done) })
			if err := s.Shutdown(done); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		return s
	}
	single := boot()
	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewServer(boot())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	c := newCoordinator(t, Config{Workers: urls})
	for _, path := range []string{serve.PathRepair, serve.PathValidate} {
		for name, body := range variants(byteBatch) {
			want := do(single, "POST", path, body)
			got := do(c, "POST", path, body)
			if want.Code != http.StatusOK || !strings.Contains(want.Body.String(), `\ufffd`) {
				t.Fatalf("%s %s: single node answered %d without a \\ufffd escape: %s", path, name, want.Code, want.Body)
			}
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s %s: coordinator answered %d, not the single node's bytes\ncoordinator: %s\nsingle-node: %s", path, name, got.Code, got.Body, want.Body)
			}
		}
	}
}
