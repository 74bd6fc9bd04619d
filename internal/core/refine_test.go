package core

import (
	"math/rand"
	"reflect"
	"testing"

	"erminer/internal/rule"
)

// TestRefineMatchesNew is the differential test of the lattice step:
// over random rules and every dimension of spaces with negated,
// multi-code and labelled units, Space.Refine returns exactly the rule
// rule.New builds from the extended LHS or pattern, starts it
// unrendered, leaves the parent and its other children unchanged, and
// refuses an input attribute the rule already constrains on that side.
func TestRefineMatchesNew(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []SpaceConfig{
		// A: 4 equalities and 4 negations, B: 2 labelled ranges, C: 2
		// equalities and 2 negations.
		{NSplit: 2, MaxValueFrac: -1, NegatedUnits: true},
		// A: 1 labelled prefix bucket, B: 4 labelled ranges, C: 2
		// equalities and 2 negations.
		{MaxDomain: 2, MaxValueFrac: -1, NegatedUnits: true},
	} {
		s := BuildSpace(p, cfg)
		for trial := 0; trial < 200; trial++ {
			parent := randomRule(rng, p, s)
			rendered := parent.String(p.Input, p.Master.Schema())
			lhs := append([]rule.AttrPair(nil), parent.LHS...)
			pattern := deepCopy(parent.Pattern)

			type refined struct {
				d          int
				got, want  *rule.Rule
				wantString string
			}
			var children []refined
			for d := 0; d < s.Dim(); d++ {
				got, ok := s.Refine(parent, d)
				var want *rule.Rule
				var used bool
				if d < s.NumLHS() {
					pair := s.LHSPairs[d]
					used = parent.HasLHSAttr(pair.Input)
					want = rule.New(append(append([]rule.AttrPair(nil), pair), lhs...), p.Y, p.Ym, pattern)
				} else {
					cond := s.Unit(d).Cond
					used = parent.HasPatternAttr(cond.Attr)
					want = rule.New(lhs, p.Y, p.Ym, append(append([]rule.Condition(nil), cond), pattern...))
				}
				if used {
					if ok || got != nil {
						t.Fatalf("%s: Refine(%d) accepted an attribute the rule already constrains", parent.Key(), d)
					}
					continue
				}
				if !ok {
					t.Fatalf("%s: Refine(%d) refused a free attribute", parent.Key(), d)
				}
				if s := got.String(p.Input, p.Master.Schema()); s == rendered {
					t.Fatalf("%s: Refine(%d) child carried the parent's rendering %q", parent.Key(), d, s)
				}
				children = append(children, refined{d, got, want, want.String(p.Input, p.Master.Schema())})
			}
			// Compare after every child exists: siblings share the
			// parent's slices, so none may have written into another.
			for _, c := range children {
				assertSameRule(t, c.got, c.want, c.d)
				if s := c.got.String(p.Input, p.Master.Schema()); s != c.wantString {
					t.Fatalf("Refine(%d) renders %q, want %q", c.d, s, c.wantString)
				}
			}
			if !reflect.DeepEqual(parent.LHS, lhs) || !reflect.DeepEqual(parent.Pattern, pattern) {
				t.Fatalf("Refine changed its parent: %s", parent.Key())
			}
		}
	}
}

// assertSameRule requires got to equal want field by field: the key,
// the dependent pair, and the LHS and pattern slices with their codes,
// labels and polarity.
func assertSameRule(t *testing.T, got, want *rule.Rule, d int) {
	t.Helper()
	if got.Key() != want.Key() {
		t.Fatalf("Refine(%d) key %q, want %q", d, got.Key(), want.Key())
	}
	if got.Y != want.Y || got.Ym != want.Ym ||
		!reflect.DeepEqual(got.LHS, want.LHS) || !reflect.DeepEqual(got.Pattern, want.Pattern) {
		t.Fatalf("Refine(%d) built LHS %v pattern %+v on (%d,%d), want LHS %v pattern %+v on (%d,%d)",
			d, got.LHS, got.Pattern, got.Y, got.Ym, want.LHS, want.Pattern, want.Y, want.Ym)
	}
}

// randomRule picks each LHS pair and at most one unit per attribute of
// s at random, and hands them to rule.New in shuffled order.
func randomRule(rng *rand.Rand, p *Problem, s *Space) *rule.Rule {
	var lhs []rule.AttrPair
	for _, pair := range s.LHSPairs {
		if rng.Intn(2) == 0 {
			lhs = append(lhs, pair)
		}
	}
	var pattern []rule.Condition
	for a := 0; a < p.Input.Schema().Len(); a++ {
		if dims := s.UnitDims(a); len(dims) > 0 && rng.Intn(2) == 0 {
			pattern = append(pattern, s.Unit(dims[rng.Intn(len(dims))]).Cond)
		}
	}
	rng.Shuffle(len(lhs), func(i, j int) { lhs[i], lhs[j] = lhs[j], lhs[i] })
	rng.Shuffle(len(pattern), func(i, j int) { pattern[i], pattern[j] = pattern[j], pattern[i] })
	return rule.New(lhs, p.Y, p.Ym, pattern)
}

func deepCopy(pattern []rule.Condition) []rule.Condition {
	var out []rule.Condition
	for _, c := range pattern {
		c.Codes = append([]int32(nil), c.Codes...)
		out = append(out, c)
	}
	return out
}

// TestRefineAllocs is the lattice step's allocation gate: a child of a
// 2-pair, 2-condition rule costs the rule and its one new slice, on
// either side. scripts/check.sh runs it without -race.
func TestRefineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	s := &Space{
		LHSPairs: []rule.AttrPair{{Input: 0, Master: 0}, {Input: 1, Master: 1}, {Input: 2, Master: 2}},
		Units: []PatternUnit{
			{Cond: rule.Eq(0, 1)},
			{Cond: rule.NewCondition(1, []int32{0, 2}, "B∈[0,2]")},
			{Cond: rule.NotEq(2, 3)},
		},
	}
	parent := rule.New([]rule.AttrPair{s.LHSPairs[0], s.LHSPairs[2]}, 3, 3,
		[]rule.Condition{s.Units[0].Cond, s.Units[2].Cond})
	for _, d := range []int{1, 4} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := s.Refine(parent, d); !ok {
				t.Fatalf("Refine(%d) refused a free attribute", d)
			}
		})
		if allocs > 2 {
			t.Errorf("Refine(%d) = %.0f allocs per child, want at most 2", d, allocs)
		}
	}
}
