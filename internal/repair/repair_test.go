package repair

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/rule"
)

// fixture builds a small input/master pair where two rules propose
// conflicting fixes with different certainty scores.
//
// input:  A (join key), G (guard), Y
// master: A, Y
func fixture() (input, master *relation.Relation) {
	pool := relation.NewPool()
	in := relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "G"},
		relation.Attribute{Name: "Y", Domain: "y"},
	)
	ms := relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "Y", Domain: "y"},
	)
	input = relation.New(in, pool)
	input.AppendRow([]string{"k1", "g", ""})
	input.AppendRow([]string{"k2", "g", "old"})
	input.AppendRow([]string{"k3", "g", ""}) // k3 joins nothing
	master = relation.New(ms, pool)
	master.AppendRow([]string{"k1", "v1"})
	master.AppendRow([]string{"k1", "v1"})
	master.AppendRow([]string{"k1", "v2"})
	master.AppendRow([]string{"k2", "v2"})
	return input, master
}

func TestApplyAggregatesCertainty(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil)
	res := Apply(ev, []*rule.Rule{r})

	if res.Covered != 2 {
		t.Fatalf("covered = %d, want 2 (k3 joins nothing)", res.Covered)
	}
	v1, _ := input.Dict(2).Lookup("v1")
	v2, _ := input.Dict(2).Lookup("v2")
	if res.Pred[0] != v1 {
		t.Errorf("row 0 fix = %d, want v1 (majority 2/3)", res.Pred[0])
	}
	if math.Abs(res.Score[0]-2.0/3.0) > 1e-12 {
		t.Errorf("row 0 score = %g, want 2/3", res.Score[0])
	}
	if res.Pred[1] != v2 {
		t.Errorf("row 1 fix = %d, want v2", res.Pred[1])
	}
	if res.Pred[2] != relation.Null {
		t.Errorf("row 2 should be uncovered, got %d", res.Pred[2])
	}
}

func TestApplyMultipleRulesSumScores(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	r1 := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil)
	// The same rule twice doubles every candidate's score: the argmax is
	// unchanged but scores sum.
	res1 := Apply(ev, []*rule.Rule{r1})
	res2 := Apply(ev, []*rule.Rule{r1, r1})
	for row := range res1.Pred {
		if res1.Pred[row] != res2.Pred[row] {
			t.Errorf("row %d: argmax changed", row)
		}
	}
	if math.Abs(res2.Score[0]-2*res1.Score[0]) > 1e-12 {
		t.Errorf("scores did not sum: %g vs %g", res2.Score[0], res1.Score[0])
	}
}

func TestApplyEmptyRuleSet(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	res := Apply(ev, nil)
	if res.Covered != 0 {
		t.Errorf("covered = %d", res.Covered)
	}
	for _, p := range res.Pred {
		if p != relation.Null {
			t.Errorf("prediction without rules: %d", p)
		}
	}
}

func TestApplyDeterministicTieBreak(t *testing.T) {
	pool := relation.NewPool()
	in := relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "Y", Domain: "y"},
	)
	ms := relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "Y", Domain: "y"},
	)
	input := relation.New(in, pool)
	input.AppendRow([]string{"k", ""})
	master := relation.New(ms, pool)
	master.AppendRow([]string{"k", "x"})
	master.AppendRow([]string{"k", "y"})
	ev := measure.NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 1, 1, nil)
	a := Apply(ev, []*rule.Rule{r})
	b := Apply(ev, []*rule.Rule{r})
	if a.Pred[0] != b.Pred[0] {
		t.Error("tie break not deterministic")
	}
}

func TestWriteFixesRepairMode(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil)
	res := Apply(ev, []*rule.Rule{r})

	rel := input.Clone()
	changed := WriteFixes(rel, 2, res, false)
	if changed != 2 {
		t.Fatalf("changed = %d, want 2", changed)
	}
	if rel.Value(0, 2) != "v1" || rel.Value(1, 2) != "v2" {
		t.Errorf("fixed values = %q, %q", rel.Value(0, 2), rel.Value(1, 2))
	}
}

func TestWriteFixesImputationMode(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil)
	res := Apply(ev, []*rule.Rule{r})

	rel := input.Clone()
	changed := WriteFixes(rel, 2, res, true)
	if changed != 1 {
		t.Fatalf("changed = %d, want 1 (only the Null cell)", changed)
	}
	if rel.Value(0, 2) != "v1" {
		t.Errorf("missing cell not imputed: %q", rel.Value(0, 2))
	}
	if rel.Value(1, 2) != "old" {
		t.Errorf("present cell overwritten in imputation mode: %q", rel.Value(1, 2))
	}
}

func TestApplyGuardedRule(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	// A pattern on G = "nope" matches no tuple: no fixes at all.
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1,
		[]rule.Condition{rule.NewCondition(1, []int32{9999}, "")})
	res := Apply(ev, []*rule.Rule{r})
	if res.Covered != 0 {
		t.Errorf("guarded rule covered %d tuples", res.Covered)
	}
}

func TestExplainMatchesApply(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil)
	rules := []*rule.Rule{r}
	res := Apply(ev, rules)
	for row := 0; row < input.NumRows(); row++ {
		exp := Explain(ev, rules, row)
		if exp.Fix != res.Pred[row] {
			t.Errorf("row %d: Explain fix %d != Apply fix %d", row, exp.Fix, res.Pred[row])
		}
		if exp.Fix != relation.Null && exp.Score != res.Score[row] {
			t.Errorf("row %d: scores differ: %g vs %g", row, exp.Score, res.Score[row])
		}
	}
}

func TestExplainEvidenceDetail(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil)
	exp := Explain(ev, []*rule.Rule{r}, 0)
	if len(exp.Evidence) != 1 {
		t.Fatalf("evidence = %d entries", len(exp.Evidence))
	}
	cands := exp.Evidence[0].Candidates
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	// Sorted by score: v1 (2/3) before v2 (1/3).
	if cands[0].Count != 2 || cands[1].Count != 1 {
		t.Errorf("candidate order wrong: %+v", cands)
	}
	s := exp.Format(input, master.Schema(), 2)
	if !strings.Contains(s, "v1") || !strings.Contains(s, "σ") {
		t.Errorf("Format output:\n%s", s)
	}
}

func TestExplainUncovered(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil)
	exp := Explain(ev, []*rule.Rule{r}, 2) // k3 joins nothing
	if exp.Fix != relation.Null || len(exp.Evidence) != 0 {
		t.Errorf("uncovered explanation = %+v", exp)
	}
	s := exp.Format(input, master.Schema(), 2)
	if !strings.Contains(s, "no rule") {
		t.Errorf("Format output:\n%s", s)
	}
}

func TestApplyContextCancellation(t *testing.T) {
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ApplyContext(ctx, ev, []*rule.Rule{r})
	if err == nil {
		t.Fatal("ApplyContext with a cancelled context returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The partial result is still well-formed (no rule ran).
	if res.Covered != 0 {
		t.Errorf("cancelled run covered %d tuples, want 0", res.Covered)
	}

	// An unexpired context behaves exactly like Apply.
	got, err := ApplyContext(context.Background(), ev, []*rule.Rule{r})
	if err != nil {
		t.Fatal(err)
	}
	want := Apply(ev, []*rule.Rule{r})
	for row := range want.Pred {
		if got.Pred[row] != want.Pred[row] {
			t.Errorf("row %d: ApplyContext diverged from Apply", row)
		}
	}
}

// TestApplyRuleZeroAllocSteadyState is the repair-side allocation
// gate: once a request's score maps exist and the evaluator's caches
// are warm, applyRule — the per-rule inner loop of ApplyContext — must
// not allocate. Together with the measure package's
// TestEvaluateZeroAlloc it pins that a steady-state repair request
// stays off the heap. scripts/check.sh runs it without -race.
func TestApplyRuleZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	input, master := fixture()
	ev := measure.NewEvaluator(input, master, nil)
	guard := input.DomainCodes(1)
	rules := []*rule.Rule{
		rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil),
		rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 2, 1, nil).
			WithCondition(rule.Eq(1, guard[0])),
	}
	scores := make([]map[int32]float64, input.NumRows())
	for i := 0; i < 3; i++ { // warm postings, projections, freelist, score maps
		for _, r := range rules {
			applyRule(ev, r, scores)
		}
	}
	for i, r := range rules {
		if allocs := testing.AllocsPerRun(100, func() {
			applyRule(ev, r, scores)
		}); allocs != 0 {
			t.Errorf("rule %d: applyRule allocates %.1f/op in steady state, want 0", i, allocs)
		}
	}
}
