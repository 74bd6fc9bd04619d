package rulesio

import (
	"strings"
	"testing"

	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/rule"
)

// testRules mines nothing: a handwritten pair of rules with a pattern
// condition and full measures, enough to exercise every wire field.
func testRules(p *core.Problem) []core.MinedRule {
	return []core.MinedRule{
		{
			Rule: rule.New(
				[]rule.AttrPair{{Input: 0, Master: 0}},
				2, 1,
				[]rule.Condition{rule.NewCondition(0, []int32{p.Input.Dict(0).Code("a1")}, "A=a1")},
			),
			Measures: measure.Measures{Support: 3, Certainty: 0.75, Quality: 0.5, Utility: 1.5},
		},
		{
			Rule:     rule.New([]rule.AttrPair{{Input: 0, Master: 0}, {Input: 1, Master: 0}}, 2, 1, nil),
			Measures: measure.Measures{Support: 7, Certainty: 1, Quality: 1, Utility: 9.25},
		},
	}
}

// TestGenerationHashRoundTrip pins the property the cluster replication
// unit rests on: exporting a rule set, importing it on a fresh "worker"
// problem (private pool, nothing pre-interned beyond the data), and
// re-exporting yields byte-identical wire bytes — so coordinator and
// worker compute the same generation hash with no coordination beyond
// the file itself.
func TestGenerationHashRoundTrip(t *testing.T) {
	coord := fuzzProblem()
	data, err := Export(coord, testRules(coord))
	if err != nil {
		t.Fatal(err)
	}
	gen := Hash(data)

	worker := fuzzProblem()
	imported, err := Import(worker, data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Export(worker, imported)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-export on the worker is not canonical:\ncoordinator: %s\nworker:      %s", data, again)
	}
	if got := Hash(again); got != gen {
		t.Errorf("worker generation hash = %s, want %s", got, gen)
	}
}

// TestGenerationHashFormat pins the id shape (ermcluster parses it back
// out of healthz payloads and HTTP headers).
func TestGenerationHashFormat(t *testing.T) {
	h := Hash([]byte("[]"))
	if !strings.HasPrefix(h, "sha256:") || len(h) != len("sha256:")+64 {
		t.Errorf("Hash = %q, want sha256: + 64 hex chars", h)
	}
	if h != Hash([]byte("[]")) {
		t.Error("Hash is not deterministic")
	}
	if h == Hash([]byte("[ ]")) {
		t.Error("Hash ignores byte differences")
	}
}

// TestGenerationHashChangesWithRules: distinct rule sets must name
// distinct generations.
func TestGenerationHashChangesWithRules(t *testing.T) {
	p := fuzzProblem()
	all, err := Export(p, testRules(p))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Export(p, testRules(p)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if Hash(all) == Hash(one) {
		t.Error("different rule sets share a generation hash")
	}
}
