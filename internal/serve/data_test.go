package serve

import (
	"net/http"
	"slices"
	"strings"
	"testing"

	"erminer/internal/core"
	"erminer/internal/relation"
)

// TestDataPatchMasterAppend is the serving half of the delta
// maintenance contract: appending master tuples through PATCH /v1/data
// must splice into the already-built shared indexes — not rebuild them
// — and the very next repair must draw fixes from the new rows.
func TestDataPatchMasterAppend(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})

	// Warm the shared master index through a normal repair.
	w := do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz", "area": "020"}]}`)
	var rr RepairResponse
	decode(t, w, &rr)
	if len(rr.Fixes) != 1 || rr.Fixes[0].New != "31200" {
		t.Fatalf("warm-up repair: %+v", rr.Fixes)
	}

	w = do(s, "PATCH", "/v1/data", `{"target": "master", "appends": [
		{"district": "xy", "area": "010", "postcode": "77777"},
		{"district": "xy", "area": "020", "postcode": "77777"},
		{"district": "xy", "area": "030", "postcode": "77777"}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("PATCH /v1/data: status %d: %s", w.Code, w.Body)
	}
	var pr DataPatchResponse
	decode(t, w, &pr)
	if pr.Target != "master" || pr.AppendedRows != 3 || pr.Rows != 12 {
		t.Fatalf("patch response = %+v", pr)
	}
	// Appended rows enlarge every rule's universe: the one active rule
	// must have been re-scored, survived, and a new generation installed.
	if pr.Revalidated != 1 || pr.Dropped != 0 || pr.RulesActive != 1 {
		t.Fatalf("revalidation after master append = %+v", pr)
	}
	if pr.RulesVersion != 2 || pr.RulesETag == "" {
		t.Fatalf("generation after patch = version %d etag %q", pr.RulesVersion, pr.RulesETag)
	}

	// A tuple from the appended district repairs from the spliced index.
	w = do(s, "POST", "/v1/repair", `{"tuples": [{"district": "xy", "area": "010"}]}`)
	decode(t, w, &rr)
	if len(rr.Fixes) != 1 || rr.Fixes[0].New != "77777" {
		t.Fatalf("repair from appended master rows: %+v", rr.Fixes)
	}
	if rr.RulesVersion != 2 {
		t.Errorf("repair ran on generation %d, want 2", rr.RulesVersion)
	}
}

// TestDataPatchInputUpdateDropsRule corrupts every input postcode so
// the active rule's approximate quality collapses: re-validation must
// drop it and install an empty generation.
func TestDataPatchInputUpdateDropsRule(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	var sb strings.Builder
	sb.WriteString(`{"target": "input", "updates": [`)
	for row := 0; row < 9; row++ {
		if row > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"row": `)
		sb.WriteString(string(rune('0' + row)))
		sb.WriteString(`, "attr": "postcode", "value": "00000"}`)
	}
	sb.WriteString(`]}`)
	w := do(s, "PATCH", "/v1/data", sb.String())
	if w.Code != http.StatusOK {
		t.Fatalf("PATCH /v1/data: status %d: %s", w.Code, w.Body)
	}
	var pr DataPatchResponse
	decode(t, w, &pr)
	if pr.Revalidated != 1 || pr.Dropped != 1 || pr.RulesActive != 0 {
		t.Fatalf("rule must be dropped when its quality collapses: %+v", pr)
	}
	if len(pr.TouchedColumns) != 1 || pr.TouchedColumns[0] != "postcode" {
		t.Errorf("touched_columns = %v, want [postcode]", pr.TouchedColumns)
	}

	// With no active rules the repair path proposes nothing.
	var rr RepairResponse
	decode(t, do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz", "area": "020"}]}`), &rr)
	if len(rr.Fixes) != 0 || rr.RulesVersion != 2 {
		t.Fatalf("repair after drop = %+v", rr)
	}
}

// TestDataPatchUntouchedRuleStands pins the selective re-validation: a
// delta on a column outside the active rule's (X, X_m, Y) footprint
// re-scores nothing and keeps the current generation — same version,
// same etag.
func TestDataPatchUntouchedRuleStands(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	before := s.rules()
	w := do(s, "PATCH", "/v1/data", `{"target": "input", "updates": [{"row": 0, "attr": "area", "value": "040"}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("PATCH /v1/data: status %d: %s", w.Code, w.Body)
	}
	var pr DataPatchResponse
	decode(t, w, &pr)
	if pr.Revalidated != 0 || pr.Dropped != 0 {
		t.Fatalf("untouched rule was re-scored: %+v", pr)
	}
	after := s.rules()
	if after.version != before.version || after.etag != before.etag {
		t.Errorf("generation moved from (%d, %s) to (%d, %s) without any rule changing",
			before.version, before.etag, after.version, after.etag)
	}
}

// TestDataPatchNoOp writes the values already present: the relation
// version must not move and no re-validation runs.
func TestDataPatchNoOp(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{})
	body := `{"target": "input", "updates": [{"row": 0, "attr": "postcode", "value": "31200"}]}`
	var first, second DataPatchResponse
	decode(t, do(s, "PATCH", "/v1/data", body), &first)
	decode(t, do(s, "PATCH", "/v1/data", body), &second)
	if first.DataVersion != second.DataVersion {
		t.Errorf("no-op patch bumped the data version: %d then %d", first.DataVersion, second.DataVersion)
	}
	if first.Revalidated != 0 || first.RulesVersion != 1 {
		t.Errorf("no-op patch touched the rules: %+v", first)
	}
}

func TestDataPatchBadRequests(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{MaxBatch: 2})
	cases := []struct {
		name, body string
	}{
		{"bad target", `{"target": "nowhere", "updates": [{"row": 0, "attr": "area", "value": "x"}]}`},
		{"empty delta", `{"target": "input"}`},
		{"unknown append column", `{"target": "input", "appends": [{"zip": "1"}]}`},
		{"unknown update column", `{"target": "input", "updates": [{"row": 0, "attr": "zip", "value": "1"}]}`},
		{"row out of range", `{"target": "input", "updates": [{"row": 99, "attr": "area", "value": "x"}]}`},
		{"over batch limit", `{"target": "input", "updates": [{"row": 0, "attr": "area", "value": "x"},
			{"row": 1, "attr": "area", "value": "x"}, {"row": 2, "attr": "area", "value": "x"}]}`},
		{"unknown field", `{"target": "input", "rows": []}`},
		{"several unknown append columns", `{"target": "master", "appends": [{"district": "nd", "area": "na", "postcode": "np"},
			{"zeta": "1", "district": "nd2", "alpha": "2", "area": "na2", "mid": "3", "postcode": "np2"}]}`},
	}
	// Every rejected delta must leave the shared dictionaries as they
	// were: validation happens before any value is interned.
	dictSizes := func() []int {
		var sizes []int
		for _, rel := range []*relation.Relation{s.p.Input, s.p.Master} {
			for c := 0; c < rel.Schema().Len(); c++ {
				sizes = append(sizes, rel.Dict(c).Size())
			}
		}
		return sizes
	}
	before, dicts := s.p.Input.Version(), dictSizes()
	for _, c := range cases {
		if w := do(s, "PATCH", "/v1/data", c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, w.Code, w.Body)
		}
		if got := dictSizes(); !slices.Equal(got, dicts) {
			t.Errorf("%s: rejected delta interned values: dictionary sizes %v -> %v", c.name, dicts, got)
			dicts = got
		}
	}
	if got := s.p.Input.Version(); got != before {
		t.Errorf("a rejected delta mutated the input: version %d -> %d", before, got)
	}
	// Several unknown columns name the first in sorted order, so
	// identical requests get identical bodies whatever the map order.
	const want = `{"error":"append 1: unknown column \"alpha\""}` + "\n"
	for i := 0; i < 200; i++ {
		if w := do(s, "PATCH", "/v1/data", cases[len(cases)-1].body); w.Body.String() != want {
			t.Fatalf("request %d answered %d %s, want 400 %s", i, w.Code, w.Body, want)
		}
	}
	if got := dictSizes(); !slices.Equal(got, dicts) {
		t.Errorf("repeated rejected appends interned values: dictionary sizes %v -> %v", dicts, got)
	}
}

// TestDataPatchQuiesceTimeout pins the stop-the-world discipline: a
// patch cannot start while a repair holds a worker slot, and gives up
// with 504 when the drain deadline passes.
func TestDataPatchQuiesceTimeout(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{RepairWorkers: 1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.holdRepair = func() {
		entered <- struct{}{}
		<-gate
	}
	go do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz", "area": "020"}]}`)
	<-entered

	done := make(chan struct{})
	close(done)
	req := DataPatchRequest{Target: "input", Updates: []DataCellJSON{{Row: 0, Attr: "area", Value: "050"}}}
	if _, status, err := s.PatchData(done, req); status != http.StatusGatewayTimeout || err == nil {
		t.Fatalf("patch under a held worker slot: status %d, err %v", status, err)
	}

	close(gate)
	s.holdRepair = nil
	waitFor(t, "repair slot to drain", func() bool {
		resp, status, err := s.PatchData(make(chan struct{}), req)
		return err == nil && status == http.StatusOK && resp.DataVersion > 0
	})
}

// TestRemineFineTune drives the full enrichment loop: train and retain
// a model with an rlminer job, enrich the corpus through PATCH
// /v1/data with remine set, and watch the enqueued RLMiner-ft job
// fine-tune, clear the thresholds and activate a new generation.
func TestRemineFineTune(t *testing.T) {
	s := newTestServer(t, nil, Config{})

	// No retained model yet: a fine-tune job must fail up front.
	w := do(s, "POST", "/v1/jobs", `{"method": "rlminer-ft", "steps": 10}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("rlminer-ft submit: status %d: %s", w.Code, w.Body)
	}
	var st JobStatus
	decode(t, w, &st)
	early := st.ID
	waitFor(t, "premature fine-tune job to fail", func() bool {
		decode(t, do(s, "GET", "/v1/jobs/"+early, ""), &st)
		return st.State == JobDone || st.State == JobFailed
	})
	if st.State != JobFailed || !strings.Contains(st.Error, "no retained rlminer model") {
		t.Fatalf("fine-tune without a model = %+v", st)
	}

	// Train and retain.
	w = do(s, "POST", "/v1/jobs", `{"method": "rlminer", "steps": 120, "seed": 7, "activate": true}`)
	decode(t, w, &st)
	trained := st.ID
	waitFor(t, "rlminer job to finish", func() bool {
		decode(t, do(s, "GET", "/v1/jobs/"+trained, ""), &st)
		return st.State == JobDone || st.State == JobFailed
	})
	if st.State != JobDone || st.Rules == 0 {
		t.Fatalf("rlminer job = %+v", st)
	}

	// Enrich the corpus and ask for a fine-tune in the same request.
	w = do(s, "PATCH", "/v1/data", `{"target": "input",
		"appends": [{"district": "hz", "area": "040", "postcode": "31200"}],
		"remine": true, "remine_steps": 60}`)
	if w.Code != http.StatusOK {
		t.Fatalf("PATCH with remine: status %d: %s", w.Code, w.Body)
	}
	var pr DataPatchResponse
	decode(t, w, &pr)
	if pr.RemineJob == "" {
		t.Fatalf("no fine-tune job enqueued: %+v", pr)
	}
	waitFor(t, "fine-tune job to finish", func() bool {
		decode(t, do(s, "GET", "/v1/jobs/"+pr.RemineJob, ""), &st)
		return st.State == JobDone || st.State == JobFailed
	})
	if st.State != JobDone || st.Rules == 0 {
		t.Fatalf("fine-tune job = %+v", st)
	}
	if st.ActivatedVersion == 0 {
		t.Fatalf("fine-tuned generation cleared the thresholds but was not activated: %+v", st)
	}
	if got := s.rules().version; got != st.ActivatedVersion {
		t.Errorf("serving generation %d, fine-tune activated %d", got, st.ActivatedVersion)
	}
}
