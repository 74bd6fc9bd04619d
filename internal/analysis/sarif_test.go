package analysis_test

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
	"time"

	"erminer/internal/analysis"
)

// TestSARIFFormat checks the `ermvet -sarif` document structurally:
// one run whose driver declares a rule per check (plus the "ermvet"
// meta rule for malformed directives), one result per diagnostic, and
// suppressed findings carried as inSource suppressions with the
// //ermvet:ignore rationale as justification — that is the shape
// GitHub code scanning needs to show alerts and written-down
// decisions side by side.
func TestSARIFFormat(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Check:   "maporder",
			Pos:     token.Position{Filename: "internal/rule/set.go", Line: 31, Column: 2},
			Message: "map iteration feeds ordered output",
		},
		{
			Check:      "allocbudget",
			Pos:        token.Position{Filename: "internal/measure/measure.go", Line: 12, Column: 9},
			Message:    "make allocates in //ermvet:hotpath function getCover",
			Suppressed: true,
			Reason:     "freelist miss: first use at this capacity",
		},
	}
	var sb strings.Builder
	if err := analysis.WriteSARIF(&sb, diags, nil); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Suppressions []struct {
					Kind          string `json:"kind"`
					Justification string `json:"justification"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version/schema = %q / %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "ermvet" {
		t.Errorf("driver name = %q, want ermvet", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool, len(run.Tool.Driver.Rules))
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	if len(run.Tool.Driver.Rules) != len(analysis.AllChecks)+1 {
		t.Errorf("got %d rules, want one per check plus the ermvet meta rule (%d)",
			len(run.Tool.Driver.Rules), len(analysis.AllChecks)+1)
	}
	for _, c := range analysis.AllChecks {
		if !ruleIDs[c.Name] {
			t.Errorf("driver rules missing check %q", c.Name)
		}
	}
	if !ruleIDs["ermvet"] {
		t.Errorf("driver rules missing the ermvet meta rule")
	}

	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	live, sup := run.Results[0], run.Results[1]
	if live.RuleID != "maporder" || live.Level != "error" {
		t.Errorf("live result = %s/%s, want maporder/error", live.RuleID, live.Level)
	}
	if len(live.Suppressions) != 0 {
		t.Errorf("live result carries %d suppressions, want none", len(live.Suppressions))
	}
	loc := live.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/rule/set.go" || loc.Region.StartLine != 31 || loc.Region.StartColumn != 2 {
		t.Errorf("live location = %q:%d:%d, want internal/rule/set.go:31:2",
			loc.ArtifactLocation.URI, loc.Region.StartLine, loc.Region.StartColumn)
	}
	if len(sup.Suppressions) != 1 {
		t.Fatalf("suppressed result carries %d suppressions, want 1", len(sup.Suppressions))
	}
	if s := sup.Suppressions[0]; s.Kind != "inSource" || s.Justification != "freelist miss: first use at this capacity" {
		t.Errorf("suppression = %q/%q, want inSource with the //ermvet:ignore rationale", s.Kind, s.Justification)
	}
}

// TestSARIFTimings pins the -timing run property: per-check wall time
// lands in the run's property bag without touching the pinned result
// format (nil timings emit no bag).
func TestSARIFTimings(t *testing.T) {
	var sb strings.Builder
	err := analysis.WriteSARIF(&sb, nil, map[string]time.Duration{"lockorder": 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var log struct {
		Runs []struct {
			Properties struct {
				CheckTimingsMs map[string]float64 `json:"checkTimingsMs"`
			} `json:"properties"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &log); err != nil {
		t.Fatalf("parsing SARIF: %v", err)
	}
	if got := log.Runs[0].Properties.CheckTimingsMs["lockorder"]; got != 2 {
		t.Errorf("checkTimingsMs[lockorder] = %v, want 2", got)
	}

	var plain strings.Builder
	if err := analysis.WriteSARIF(&plain, nil, nil); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	if strings.Contains(plain.String(), "properties") {
		t.Errorf("WriteSARIF without timings must not emit a property bag")
	}
}
