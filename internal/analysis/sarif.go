package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// sarifSchema pins the SARIF dialect the writer emits. GitHub code
// scanning consumes 2.1.0; nothing newer is needed for line-level
// annotations with in-source suppressions.
const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
)

// The SARIF object graph, restricted to the fields GitHub's
// code-scanning importer reads. One log, one run, one result per
// diagnostic; suppressed findings are carried as results with an
// inSource suppression whose justification is the //ermvet:ignore
// rationale, so the written-down decisions surface in the alerts UI
// instead of vanishing.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
	// Properties carries run-level metadata; ermvet uses it for the
	// optional per-check wall-clock timings (-timing). Omitted entirely
	// when no timings were collected, so the pinned document format is
	// unchanged for existing consumers.
	Properties *sarifRunProperties `json:"properties,omitempty"`
}

type sarifRunProperties struct {
	CheckTimingsMs map[string]float64 `json:"checkTimingsMs"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	Level        string             `json:"level"`
	Message      sarifText          `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// sarifRules enumerates the driver's rule metadata: every check in
// AllChecks plus the "ermvet" meta rule malformed //ermvet:ignore
// directives report under.
func sarifRules() []sarifRule {
	rules := make([]sarifRule, 0, len(AllChecks)+1)
	for _, c := range AllChecks {
		rules = append(rules, sarifRule{ID: c.Name, ShortDescription: sarifText{Text: c.Doc}})
	}
	rules = append(rules, sarifRule{
		ID:               "ermvet",
		ShortDescription: sarifText{Text: "//ermvet:ignore directives are well-formed and carry a rationale"},
	})
	return rules
}

// WriteSARIF renders diagnostics as one SARIF 2.1.0 document, with the
// optional per-check timings carried in the run's property bag (a nil
// or empty map emits no bag). File paths are emitted as given,
// normalized to forward slashes; callers wanting repository-relative
// URIs (as GitHub code scanning requires) rewrite Pos.Filename before
// calling, exactly as with WriteJSON.
func WriteSARIF(w io.Writer, diags []Diagnostic, timings map[string]time.Duration) error {
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		r := sarifResult{
			RuleID:  d.Check,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		}
		if d.Suppressed {
			r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: d.Reason}}
		}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ermvet", Rules: sarifRules()}},
			Results: results,
		}},
	}
	if len(timings) > 0 {
		ms := make(map[string]float64, len(timings))
		for name, d := range timings {
			ms[name] = float64(d.Microseconds()) / 1000
		}
		log.Runs[0].Properties = &sarifRunProperties{CheckTimingsMs: ms}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(log); err != nil {
		return fmt.Errorf("analysis: encoding SARIF: %w", err)
	}
	return nil
}
