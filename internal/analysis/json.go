package analysis

import (
	"encoding/json"
	"fmt"
	"io"
)

// diagJSON is the machine-readable finding format `ermvet -json` emits,
// one object per line. The field set is pinned by TestJSONFormat; CI
// parses it to build the PR step summary, so changes here are wire
// changes too.
type diagJSON struct {
	Check      string `json:"check"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	// Reason is the suppression directive's rationale; omitted for live
	// findings so pre-existing consumers see an unchanged record.
	Reason string `json:"reason,omitempty"`
}

// WriteJSON renders diagnostics as newline-delimited JSON. File paths
// are emitted as given; callers wanting module-relative paths rewrite
// Pos.Filename before calling.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		j := diagJSON{
			Check:      d.Check,
			File:       d.Pos.Filename,
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Message:    d.Message,
			Suppressed: d.Suppressed,
			Reason:     d.Reason,
		}
		if err := enc.Encode(j); err != nil {
			return fmt.Errorf("analysis: encoding diagnostic: %w", err)
		}
	}
	return nil
}
