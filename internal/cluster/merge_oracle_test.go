package cluster

// The coordinator's merge before the splice, kept as the reference the
// splice is checked against: decode every worker body into the typed
// response, renumber rows, sort the fixes and encode the whole response
// again. The merge bodies are the former handleRepair/handleValidate
// verbatim, with the HTTP plumbing replaced by a recorder.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"erminer/internal/serve"
)

// sameVersion verifies every contributing sub-response was evaluated
// under one rule generation.
func sameVersion(versions []int64, have []bool) (int64, error) {
	version := int64(-1)
	for i, v := range versions {
		if !have[i] {
			continue
		}
		if version == -1 {
			version = v
		} else if v != version {
			return 0, fmt.Errorf("workers answered under different rule generations (%d vs %d); retry after the rule push settles", version, v)
		}
	}
	return version, nil
}

// oracleRepair merges /v1/repair bodies the old way and returns the
// status and body the coordinator answered.
func oracleRepair(data [][]byte, parts [][]int) (int, []byte) {
	w := httptest.NewRecorder()
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	resp := serve.RepairResponse{
		Tuples: make([]map[string]string, n),
		Fixes:  []serve.FixJSON{},
	}
	versions := make([]int64, len(data))
	have := make([]bool, len(data))
	for i, raw := range data {
		if raw == nil {
			continue
		}
		var sr serve.RepairResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			serve.HTTPError(w, http.StatusBadGateway, "decoding worker %d response: %v", i, err)
			return w.Code, w.Body.Bytes()
		}
		if len(sr.Tuples) != len(parts[i]) {
			serve.HTTPError(w, http.StatusBadGateway, "worker %d answered %d tuples for a %d-tuple sub-batch", i, len(sr.Tuples), len(parts[i]))
			return w.Code, w.Body.Bytes()
		}
		versions[i], have[i] = sr.RulesVersion, true
		for k, idx := range parts[i] {
			resp.Tuples[idx] = sr.Tuples[k]
		}
		for _, f := range sr.Fixes {
			f.Row = parts[i][f.Row]
			resp.Fixes = append(resp.Fixes, f)
		}
		resp.Covered += sr.Covered
		resp.Changed += sr.Changed
	}
	version, err := sameVersion(versions, have)
	if err != nil {
		serve.HTTPError(w, http.StatusBadGateway, "%v", err)
		return w.Code, w.Body.Bytes()
	}
	resp.RulesVersion = version
	sort.Slice(resp.Fixes, func(i, j int) bool { return resp.Fixes[i].Row < resp.Fixes[j].Row })
	serve.WriteJSON(w, http.StatusOK, resp)
	return w.Code, w.Body.Bytes()
}

// oracleValidate merges /v1/validate bodies the old way.
func oracleValidate(data [][]byte, parts [][]int) (int, []byte) {
	w := httptest.NewRecorder()
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	resp := serve.ValidateResponse{Results: make([]serve.ValidationJSON, n)}
	versions := make([]int64, len(data))
	have := make([]bool, len(data))
	for i, raw := range data {
		if raw == nil {
			continue
		}
		var sr serve.ValidateResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			serve.HTTPError(w, http.StatusBadGateway, "decoding worker %d response: %v", i, err)
			return w.Code, w.Body.Bytes()
		}
		if len(sr.Results) != len(parts[i]) {
			serve.HTTPError(w, http.StatusBadGateway, "worker %d answered %d results for a %d-tuple sub-batch", i, len(sr.Results), len(parts[i]))
			return w.Code, w.Body.Bytes()
		}
		versions[i], have[i] = sr.RulesVersion, true
		for k, idx := range parts[i] {
			v := sr.Results[k]
			v.Row = idx
			resp.Results[idx] = v
		}
		resp.Violations += sr.Violations
		resp.Missing += sr.Missing
		resp.Uncovered += sr.Uncovered
	}
	version, err := sameVersion(versions, have)
	if err != nil {
		serve.HTTPError(w, http.StatusBadGateway, "%v", err)
		return w.Code, w.Body.Bytes()
	}
	resp.RulesVersion = version
	serve.WriteJSON(w, http.StatusOK, resp)
	return w.Code, w.Body.Bytes()
}
