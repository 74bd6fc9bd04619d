package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"erminer/internal/core"
)

// FuzzRepairRequest posts arbitrary bytes to /v1/repair and
// /v1/validate on one server. Neither handler may panic, both answer
// 200 or both answer 400, since they share one decoder. A 200 repair
// echoes one tuple per posted tuple and lists its fixes in ascending
// row order, inside the batch; a 200 validation answers result i for
// tuple i.
func FuzzRepairRequest(f *testing.F) {
	for _, tc := range badBatches {
		f.Add([]byte(tc.body))
	}
	const tuples = `"tuples": [{"district": "hz", "area": "010", "postcode": "99999"}, {"district": "bd", "area": "020"}]`
	f.Add([]byte(`{"explain": true, ` + tuples + `}`))
	f.Add([]byte(`{"only_missing": true, ` + tuples + `}`))
	s := newTestServer(f, []core.MinedRule{districtRule()}, Config{MaxBatch: 2})
	f.Fuzz(func(t *testing.T, body []byte) {
		rw, vw := do(s, "POST", PathRepair, string(body)), do(s, "POST", PathValidate, string(body))
		ok := answeredOK(t, rw)
		if ok != answeredOK(t, vw) {
			t.Fatalf("repair answered %d but validate %d", rw.Code, vw.Code)
		}
		if !ok {
			return
		}
		// The handlers accepted the body, so a plain decode agrees with
		// theirs on the tuples.
		var posted TupleBatch
		if err := json.Unmarshal(body, &posted); err != nil {
			t.Fatalf("answered 200 to a body that does not decode: %v", err)
		}
		var repaired RepairResponse
		decode(t, rw, &repaired)
		if len(repaired.Tuples) != len(posted.Tuples) {
			t.Fatalf("repair echoed %d tuples for %d posted", len(repaired.Tuples), len(posted.Tuples))
		}
		for i, fix := range repaired.Fixes {
			if fix.Row < 0 || fix.Row >= len(posted.Tuples) || i > 0 && fix.Row <= repaired.Fixes[i-1].Row {
				t.Fatalf("fix %d names row %d (fixes %+v, %d tuples)", i, fix.Row, repaired.Fixes, len(posted.Tuples))
			}
		}
		var validated ValidateResponse
		decode(t, vw, &validated)
		if len(validated.Results) != len(posted.Tuples) {
			t.Fatalf("validate answered %d results for %d posted tuples", len(validated.Results), len(posted.Tuples))
		}
		for i, r := range validated.Results {
			if r.Row != i {
				t.Fatalf("result %d names row %d", i, r.Row)
			}
		}
	})
}

// FuzzDataPatch sends arbitrary bytes as PATCH /v1/data to a fresh
// server. The handler may not panic and answers 200 or 400, and a 400
// leaves the data as it was: no dictionary grew, and neither relation
// changed its version or its row count.
func FuzzDataPatch(f *testing.F) {
	f.Add([]byte(`{"target": "master", "appends": [{"zeta": "1", "district": "xy", "alpha": "2", "area": "010", "mid": "3", "postcode": "77777"}]}`))
	for _, tc := range badPatches {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"target": "input", "appends": [{"district": "hz", "area": "040", "postcode": "31200"}], "remine": true, "remine_steps": 5}`))
	f.Add([]byte(`{"target": "input", "updates": [{"row": 0, "attr": "postcode", "value": "00000"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newTestServer(t, []core.MinedRule{districtRule()}, Config{MaxBatch: 2})
		// A remine patch queues a fine-tune job. Parking it keeps mining
		// out of the fuzz loop; the gate opens at cleanup, before the
		// server shuts down, and the job then fails at once, because
		// this server has no trained model to fine-tune.
		gate := make(chan struct{})
		t.Cleanup(func() { close(gate) })
		s.holdJob = func(string) { <-gate }

		in, ms := s.p.Input, s.p.Master
		versions, rows, dicts := []int64{in.Version(), ms.Version()}, []int{in.NumRows(), ms.NumRows()}, dictSizes(s)
		if answeredOK(t, do(s, "PATCH", PathData, string(body))) {
			return
		}
		if got := dictSizes(s); !slices.Equal(got, dicts) {
			t.Errorf("rejected delta grew dictionaries: sizes %v -> %v", dicts, got)
		}
		if got := []int64{in.Version(), ms.Version()}; !slices.Equal(got, versions) {
			t.Errorf("rejected delta moved the (input, master) versions %v -> %v", versions, got)
		}
		if got := []int{in.NumRows(), ms.NumRows()}; !slices.Equal(got, rows) {
			t.Errorf("rejected delta changed the (input, master) row counts %v -> %v", rows, got)
		}
	})
}

// answeredOK fails t unless w is a 200, or a 400 whose body is
// {"error":…} and a newline, and reports whether it was a 200.
func answeredOK(t *testing.T, w *httptest.ResponseRecorder) bool {
	t.Helper()
	switch w.Code {
	case http.StatusOK:
		return true
	case http.StatusBadRequest:
		body := w.Body.String()
		var e map[string]string
		if !strings.HasPrefix(body, `{"error":`) || !strings.HasSuffix(body, "}\n") ||
			json.Unmarshal(w.Body.Bytes(), &e) != nil || len(e) != 1 {
			t.Fatalf("400 body %q, want {\"error\":…} and a newline", body)
		}
		return false
	}
	t.Fatalf("status %d, want 200 or 400: %s", w.Code, w.Body)
	return false
}
