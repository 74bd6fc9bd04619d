package analysis_test

import (
	"go/token"
	"strings"
	"testing"

	"erminer/internal/analysis"
)

// TestJSONFormat pins the `ermvet -json` line format: one object per
// line with exactly the check/file/line/col/message/suppressed fields.
// CI parses this to build the PR step summary, so the field set is a
// wire format — extend it deliberately, never rename.
func TestJSONFormat(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Check:   "errdrop",
			Pos:     token.Position{Filename: "internal/serve/checkpoint.go", Line: 54, Column: 8},
			Message: `call to os.Remove drops its error result`,
		},
		{
			Check:      "lockorder",
			Pos:        token.Position{Filename: "internal/serve/handlers.go", Line: 9, Column: 2},
			Message:    "s.mu is still locked when f returns on this path",
			Suppressed: true,
		},
		{
			Check:      "errdrop",
			Pos:        token.Position{Filename: "internal/cluster/partition.go", Line: 28, Column: 3},
			Message:    "call to h.Write drops its error result",
			Suppressed: true,
			Reason:     "fnv's Write is documented to never fail",
		},
	}
	var sb strings.Builder
	if err := analysis.WriteJSON(&sb, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{"check":"errdrop","file":"internal/serve/checkpoint.go","line":54,"col":8,"message":"call to os.Remove drops its error result","suppressed":false}
{"check":"lockorder","file":"internal/serve/handlers.go","line":9,"col":2,"message":"s.mu is still locked when f returns on this path","suppressed":true}
{"check":"errdrop","file":"internal/cluster/partition.go","line":28,"col":3,"message":"call to h.Write drops its error result","suppressed":true,"reason":"fnv's Write is documented to never fail"}
`
	if sb.String() != want {
		t.Errorf("JSON output drifted:\ngot:  %q\nwant: %q", sb.String(), want)
	}
}
