package analysis_test

import (
	"go/token"
	"reflect"
	"strings"
	"testing"
	"time"

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
			Check:      "allocbudget",
			Pos:        token.Position{Filename: "internal/measure/measure.go", Line: 12, Column: 9},
			Message:    "make allocates in //ermvet:hotpath function getCover",
			Suppressed: true,
			Reason:     "freelist miss: first use at this capacity",
		},
	}
	var sb strings.Builder
	if err := analysis.WriteJSON(&sb, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{"check":"errdrop","file":"internal/serve/checkpoint.go","line":54,"col":8,"message":"call to os.Remove drops its error result","suppressed":false}
{"check":"lockorder","file":"internal/serve/handlers.go","line":9,"col":2,"message":"s.mu is still locked when f returns on this path","suppressed":true}
{"check":"allocbudget","file":"internal/measure/measure.go","line":12,"col":9,"message":"make allocates in //ermvet:hotpath function getCover","suppressed":true,"reason":"freelist miss: first use at this capacity"}
`
	if sb.String() != want {
		t.Errorf("JSON output drifted:\ngot:  %q\nwant: %q", sb.String(), want)
	}
}

// TestTimingJSONFormat pins the `-timing` NDJSON record: discriminated
// by record:"timing" so CI's jq can split the shared stream, sorted by
// check name.
func TestTimingJSONFormat(t *testing.T) {
	var sb strings.Builder
	err := analysis.WriteTimingsJSON(&sb, map[string]time.Duration{
		"lockorder":    1500 * time.Microsecond,
		"httpcontract": 250 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("WriteTimingsJSON: %v", err)
	}
	want := `{"record":"timing","check":"httpcontract","ms":0.25}
{"record":"timing","check":"lockorder","ms":1.5}
`
	if sb.String() != want {
		t.Errorf("timing output drifted:\ngot:  %q\nwant: %q", sb.String(), want)
	}
}

// TestRunTiming pins the Module.Timing hook: one callback per check
// per package, under the check's reporting name.
func TestRunTiming(t *testing.T) {
	mod := loadFixture(t, "maporder/a")
	var calls []string
	mod.Timing = func(check string, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for %s", check)
		}
		calls = append(calls, check)
	}
	mod.Run(mod.Packages[0], []*analysis.Check{analysis.MapOrder, analysis.DetRand})
	if want := []string{"maporder", "detrand"}; !reflect.DeepEqual(calls, want) {
		t.Errorf("timing callbacks = %v, want %v", calls, want)
	}
}
