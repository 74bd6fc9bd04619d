package measure

import (
	"fmt"
	"reflect"
	"testing"

	"erminer/internal/relation"
	"erminer/internal/rule"
)

// diffRules builds an adversarial rule set over the fig1 schemas:
// every single-pair LHS, a multi-pair LHS, empty LHS, and patterns
// exercising equality, negation and multi-code conditions on columns
// with and without Nulls.
func fig1DiffRules(t *testing.T, input *relation.Relation) []*rule.Rule {
	t.Helper()
	hz := code(t, input, iCity, "HZ")
	bj := code(t, input, iCity, "BJ")
	d12 := code(t, input, iDate, "2021-12")
	no := code(t, input, iOverseas, "No")
	pairs := []rule.AttrPair{
		{Input: iName, Master: mFN},
		{Input: iCity, Master: mCity},
		{Input: iZIP, Master: mZip},
		{Input: iAC, Master: mAC},
		{Input: iPhone, Master: mPhone},
		{Input: iSex, Master: mSex},
		{Input: iDate, Master: mDate},
	}
	var rules []*rule.Rule
	rules = append(rules, rule.New(nil, iCase, mInfection, nil))
	rules = append(rules, rule.New(nil, iCase, mInfection,
		[]rule.Condition{rule.Eq(iCity, hz)}))
	for _, p := range pairs {
		rules = append(rules, rule.New([]rule.AttrPair{p}, iCase, mInfection, nil))
		rules = append(rules, rule.New([]rule.AttrPair{p}, iCase, mInfection,
			[]rule.Condition{rule.Eq(iCity, hz)}))
		rules = append(rules, rule.New([]rule.AttrPair{p}, iCase, mInfection,
			[]rule.Condition{rule.NotEq(iCity, hz)}))
		rules = append(rules, rule.New([]rule.AttrPair{p}, iCase, mInfection,
			[]rule.Condition{rule.NewCondition(iCity, []int32{hz, bj}, "")}))
		// ZIP and Sex carry Nulls: both polarities must treat them as
		// non-matching.
		rules = append(rules, rule.New([]rule.AttrPair{p}, iCase, mInfection,
			[]rule.Condition{rule.NotEq(iZIP, code(t, input, iZIP, "10021"))}))
		rules = append(rules, rule.New([]rule.AttrPair{p}, iCase, mInfection,
			[]rule.Condition{rule.Eq(iSex, code(t, input, iSex, "Male"))}))
	}
	rules = append(rules, rule.New(
		[]rule.AttrPair{{Input: iCity, Master: mCity}, {Input: iDate, Master: mDate}},
		iCase, mInfection,
		[]rule.Condition{rule.Eq(iCity, hz), rule.Eq(iDate, d12), rule.Eq(iOverseas, no)}))
	return rules
}

// assertSameEval pins the engine to the oracle on one rule: full-scan
// Evaluate, PatternCover, a parent-cover-restricted Evaluate and per-row
// Candidates must be bit-identical.
func assertSameEval(t *testing.T, col *Evaluator, o *oracle, r *rule.Rule, tag string) {
	t.Helper()
	want := o.Evaluate(r, nil)
	got := col.Evaluate(r, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: Evaluate(nil) diverged:\noracle   %+v\ncolumnar %+v", tag, want, got)
	}
	if pc := col.PatternCover(r, nil); !reflect.DeepEqual(pc, want.PatternCover) {
		t.Fatalf("%s: PatternCover(nil) = %v, want %v", tag, pc, want.PatternCover)
	}
	// Restrict to a parent cover with holes: every other covered row.
	parent := make([]int32, 0, len(want.PatternCover))
	for i, row := range want.PatternCover {
		if i%2 == 0 {
			parent = append(parent, row)
		}
	}
	want2 := o.Evaluate(r, parent)
	got2 := col.Evaluate(r, parent)
	if !reflect.DeepEqual(want2, got2) {
		t.Fatalf("%s: Evaluate(parent) diverged:\noracle   %+v\ncolumnar %+v", tag, want2, got2)
	}
	for row := 0; row < col.Input().NumRows(); row++ {
		hw, okw := o.Candidates(r, row)
		hg, okg := col.Candidates(r, row)
		if okw != okg || !reflect.DeepEqual(hw, hg) {
			t.Fatalf("%s: Candidates(row %d) diverged: (%v,%v) vs (%v,%v)", tag, row, hw, okw, hg, okg)
		}
	}
}

// TestColumnarMatchesScalarFig1 runs the differential suite on the
// paper's Figure 1 data, whose Null cells exercise the -1 group id and
// the Null-never-matches pattern semantics.
func TestColumnarMatchesScalarFig1(t *testing.T) {
	input, master := fig1()
	truth := fig1Truth(t, input)
	col := NewEvaluator(input, master, truth)
	o := newOracle(input, master, truth)
	for i, r := range fig1DiffRules(t, input) {
		assertSameEval(t, col, o, r, fmt.Sprintf("fig1 rule %d", i))
	}
	// Approximate-quality mode (nil truth) reads the observed Y column.
	colA := NewEvaluator(input, master, nil)
	oA := newOracle(input, master, nil)
	for i, r := range fig1DiffRules(t, input) {
		assertSameEval(t, colA, oA, r, fmt.Sprintf("fig1/approx rule %d", i))
	}
}

// TestColumnarMatchesScalarSynth runs the differential suite on larger
// synthetic pairs across seeds, interleaving rules on one shared
// evaluator so memoisation and cache reuse are stressed.
func TestColumnarMatchesScalarSynth(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		input, master := synthPair(1000, seed)
		col := NewEvaluator(input, master, nil)
		o := newOracle(input, master, nil)
		rules := synthRules(input)
		// Add negated and multi-code guards over G.
		gs := input.DomainCodes(2)
		rules = append(rules,
			rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 3, 2,
				[]rule.Condition{rule.NotEq(2, gs[0])}),
			rule.New([]rule.AttrPair{{Input: 0, Master: 0}, {Input: 1, Master: 1}}, 3, 2,
				[]rule.Condition{rule.NewCondition(2, gs[:2], "")}),
		)
		for round := 0; round < 2; round++ {
			for i, r := range rules {
				assertSameEval(t, col, o, r, fmt.Sprintf("seed %d round %d rule %d", seed, round, i))
			}
		}
	}
}

// TestColumnarInvalidatesOnMutation mutates the input after the caches
// are warm and checks the columnar engine rebuilds: its results must
// match an oracle built over the mutated relation.
func TestColumnarInvalidatesOnMutation(t *testing.T) {
	input, master := synthPair(300, 11)
	col := NewEvaluator(input, master, nil)
	rules := synthRules(input)
	for _, r := range rules {
		col.Evaluate(r, nil) // warm postings, projections, memo
	}

	// Move row 0 to a different guard group and blank row 1's LHS.
	gs := input.DomainCodes(2)
	input.SetCode(0, 2, gs[len(gs)-1])
	input.SetCode(1, 0, relation.Null)

	o := newOracle(input, master, nil)
	for i, r := range rules {
		assertSameEval(t, col, o, r, fmt.Sprintf("post-mutation rule %d", i))
	}
}

// TestReleaseCoverReuse checks that covers returned to the freelist are
// recycled without corrupting later results, including the empty cover.
func TestReleaseCoverReuse(t *testing.T) {
	input, master := synthPair(500, 5)
	ev := NewEvaluator(input, master, nil)
	r := synthRules(input)[4]
	want := ev.Evaluate(r, nil)
	wantCover := append([]int32(nil), want.PatternCover...)
	for i := 0; i < 10; i++ {
		ms := ev.Evaluate(r, nil)
		if !reflect.DeepEqual(ms.PatternCover, wantCover) {
			t.Fatalf("iteration %d: cover drifted after reuse", i)
		}
		ev.ReleaseCover(ms.PatternCover)
	}
	ev.ReleaseCover(nil) // no-op
	if got := ev.Evaluate(r, nil); !reflect.DeepEqual(got.PatternCover, wantCover) {
		t.Fatalf("cover drifted after nil release")
	}
}

// TestEvaluateZeroAlloc is the allocation gate of the columnar hot
// path: with warmed caches and the cover buffer recycled, Evaluate,
// PatternCover and CoveredCandidates must not allocate. The mining
// shapes run a child rule over its parent's cover (filterCover) and
// patterns that reach every posting kernel: two conditions
// (intersectInto), a condition with several codes (mergeInto) and a
// negated one (subtractInto). The closing sweep drives the
// repair-request shape (cover intersection, then one candidate lookup
// per covered row) over every synthetic rule — mixed LHS widths and
// guard patterns. scripts/check.sh runs this test without -race; keep
// it green or the build gate fails.
func TestEvaluateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	input, master := synthPair(2048, 7)
	ev := NewEvaluator(input, master, nil)
	rules := synthRules(input)
	for _, r := range []*rule.Rule{rules[0], rules[len(rules)-1]} {
		name := "guarded"
		if len(r.Pattern) == 0 {
			name = "empty-pattern"
		}
		for i := 0; i < 3; i++ { // warm postings, projection, memo, freelist
			ms := ev.Evaluate(r, nil)
			ev.ReleaseCover(ms.PatternCover)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			ms := ev.Evaluate(r, nil)
			ev.ReleaseCover(ms.PatternCover)
		}); allocs != 0 {
			t.Errorf("%s: Evaluate allocates %.1f/op on a warmed cache, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			ev.ReleaseCover(ev.PatternCover(r, nil))
		}); allocs != 0 {
			t.Errorf("%s: PatternCover allocates %.1f/op on a warmed cache, want 0", name, allocs)
		}
	}
	base := rule.New([]rule.AttrPair{{Input: 0, Master: 0}}, 3, 2, nil)
	parent := base.WithCondition(rule.Eq(2, input.DomainCodes(2)[0]))
	child := parent.WithCondition(rule.Eq(1, input.DomainCodes(1)[0]))
	parentCover := ev.PatternCover(parent, nil)
	for _, tc := range []struct {
		name   string
		r      *rule.Rule
		parent []int32
	}{
		{"child over parent cover", child, parentCover},
		{"two conditions", child, nil},
		{"several codes", base.WithCondition(rule.NewCondition(1, input.DomainCodes(1)[:3], "")), nil},
		{"negated", base.WithCondition(rule.NotEq(2, input.DomainCodes(2)[1])), nil},
	} {
		for i := 0; i < 3; i++ {
			ev.ReleaseCover(ev.Evaluate(tc.r, tc.parent).PatternCover)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			ev.ReleaseCover(ev.Evaluate(tc.r, tc.parent).PatternCover)
		}); allocs != 0 {
			t.Errorf("%s: Evaluate allocates %.1f/op on a warmed cache, want 0", tc.name, allocs)
		}
	}
	r := rules[len(rules)-1]
	if allocs := testing.AllocsPerRun(100, func() {
		for row := 0; row < 64; row++ {
			ev.CoveredCandidates(r, row)
		}
	}); allocs != 0 {
		t.Errorf("CoveredCandidates allocates %.1f/op on a warmed cache, want 0", allocs)
	}
	for i, r := range rules {
		for j := 0; j < 3; j++ { // warm this rule's projection and cover
			ev.ReleaseCover(ev.PatternCover(r, nil))
		}
		if allocs := testing.AllocsPerRun(20, func() {
			cover := ev.PatternCover(r, nil)
			for _, row := range cover {
				ev.CoveredCandidates(r, int(row))
			}
			ev.ReleaseCover(cover)
		}); allocs != 0 {
			t.Errorf("rule %d: repair-shaped sweep allocates %.1f/op on a warmed cache, want 0", i, allocs)
		}
	}
}

// TestHistFirstAddSetsArg is the regression test for the implicit
// first-observation tie-break: a histogram whose true argmax has a code
// larger than 0 must report that code, not the zero value.
func TestHistFirstAddSetsArg(t *testing.T) {
	h := &Hist{Counts: make(map[int32]int)}
	h.add(5)
	if h.Max != 1 || h.Arg != 5 {
		t.Fatalf("after first add(5): Max=%d Arg=%d, want 1/5", h.Max, h.Arg)
	}
	h2 := &Hist{Counts: make(map[int32]int)}
	for _, v := range []int32{7, 3, 7} {
		h2.add(v)
	}
	if h2.Max != 2 || h2.Arg != 7 {
		t.Fatalf("argmax with code > 0: Max=%d Arg=%d, want 2/7", h2.Max, h2.Arg)
	}
	if c := h2.Certainty(); c != 2.0/3.0 {
		t.Fatalf("Certainty = %g, want 2/3", c)
	}
}

// TestShareColumnsRejectsForeignRelation pins the guard against binding
// an evaluator to a columnar store over a different relation.
func TestShareColumnsRejectsForeignRelation(t *testing.T) {
	input, master := fig1()
	other := input.Clone()
	ev := NewEvaluator(input, master, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("ShareColumns accepted a store over a different relation")
		}
	}()
	ev.ShareColumns(NewColumnIndex(other))
}
