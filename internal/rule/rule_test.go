package rule

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"erminer/internal/relation"
)

func testRelation() *relation.Relation {
	s := relation.NewSchema(
		relation.Attribute{Name: "city"},
		relation.Attribute{Name: "zip"},
		relation.Attribute{Name: "case"},
	)
	r := relation.New(s, relation.NewPool())
	r.AppendRow([]string{"HZ", "31200", "patient"})
	r.AppendRow([]string{"BJ", "10021", "imports"})
	r.AppendRow([]string{"HZ", "", "patient"})
	return r
}

func TestNewConditionNormalises(t *testing.T) {
	c := NewCondition(0, []int32{5, 1, 5, relation.Null, 3}, "")
	want := []int32{1, 3, 5}
	if len(c.Codes) != len(want) {
		t.Fatalf("Codes = %v, want %v", c.Codes, want)
	}
	for i := range want {
		if c.Codes[i] != want[i] {
			t.Fatalf("Codes = %v, want %v", c.Codes, want)
		}
	}
}

func TestConditionMatches(t *testing.T) {
	c := NewCondition(0, []int32{2, 4, 9}, "")
	for _, tc := range []struct {
		code int32
		want bool
	}{
		{2, true}, {4, true}, {9, true},
		{1, false}, {3, false}, {10, false},
		{relation.Null, false},
	} {
		if got := c.Matches(tc.code); got != tc.want {
			t.Errorf("Matches(%d) = %v, want %v", tc.code, got, tc.want)
		}
	}
}

// Property: the binary search in Matches agrees with a linear scan for
// arbitrary sorted code sets.
func TestConditionMatchesProperty(t *testing.T) {
	f := func(codes []int32, probe int32) bool {
		c := NewCondition(0, codes, "")
		linear := false
		for _, x := range c.Codes {
			if x == probe {
				linear = true
			}
		}
		return c.Matches(probe) == linear
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEqIsSingleton(t *testing.T) {
	c := Eq(3, 7)
	if c.Attr != 3 || len(c.Codes) != 1 || c.Codes[0] != 7 {
		t.Errorf("Eq = %+v", c)
	}
}

func TestSameCodes(t *testing.T) {
	a := NewCondition(1, []int32{1, 2}, "x")
	b := NewCondition(1, []int32{2, 1}, "y") // label ignored, order normalised
	if !a.SameCodes(b) {
		t.Error("equal code sets not recognised")
	}
	c := NewCondition(1, []int32{1, 3}, "")
	if a.SameCodes(c) {
		t.Error("different code sets matched")
	}
	d := NewCondition(2, []int32{1, 2}, "")
	if a.SameCodes(d) {
		t.Error("different attributes matched")
	}
}

func TestRuleNormalisationAndKey(t *testing.T) {
	r1 := New([]AttrPair{{1, 1}, {0, 0}}, 2, 2, []Condition{Eq(1, 5), Eq(0, 3)})
	r2 := New([]AttrPair{{0, 0}, {1, 1}}, 2, 2, []Condition{Eq(0, 3), Eq(1, 5)})
	if r1.Key() != r2.Key() {
		t.Errorf("keys differ for equal rules:\n%s\n%s", r1.Key(), r2.Key())
	}
	r3 := New([]AttrPair{{0, 0}}, 2, 2, nil)
	if r1.Key() == r3.Key() {
		t.Error("different rules share a key")
	}
}

func TestWithLHSAndWithConditionAreCopies(t *testing.T) {
	base := New([]AttrPair{{0, 0}}, 2, 2, nil)
	child := base.WithLHS(1, 1)
	if len(base.LHS) != 1 {
		t.Error("WithLHS mutated the receiver")
	}
	if len(child.LHS) != 2 {
		t.Errorf("child LHS = %v", child.LHS)
	}
	child2 := base.WithCondition(Eq(1, 4))
	if len(base.Pattern) != 0 {
		t.Error("WithCondition mutated the receiver")
	}
	if len(child2.Pattern) != 1 {
		t.Errorf("child2 pattern = %v", child2.Pattern)
	}
}

func TestHasAttrHelpers(t *testing.T) {
	r := New([]AttrPair{{0, 0}}, 2, 2, []Condition{Eq(1, 4)})
	if !r.HasLHSAttr(0) || r.HasLHSAttr(1) {
		t.Error("HasLHSAttr wrong")
	}
	if !r.HasPatternAttr(1) || r.HasPatternAttr(0) {
		t.Error("HasPatternAttr wrong")
	}
}

func TestMatchesPattern(t *testing.T) {
	rel := testRelation()
	hz, ok1 := rel.Dict(0).Lookup("HZ")
	zip, ok2 := rel.Dict(1).Lookup("31200")
	if !ok1 || !ok2 {
		t.Fatal("test values not interned")
	}
	r := New([]AttrPair{{0, 0}}, 2, 2, []Condition{Eq(0, hz), Eq(1, zip)})
	if !r.MatchesPattern(rel, 0) {
		t.Error("row 0 should match (HZ, 31200)")
	}
	if r.MatchesPattern(rel, 1) {
		t.Error("row 1 should not match")
	}
	// Row 2 has Null zip: Null never matches.
	if r.MatchesPattern(rel, 2) {
		t.Error("row 2 with Null zip should not match")
	}
}

func TestString(t *testing.T) {
	rel := testRelation()
	ms := relation.NewSchema(
		relation.Attribute{Name: "city_m"},
		relation.Attribute{Name: "case_m"},
	)
	hz, _ := rel.Dict(0).Lookup("HZ")
	r := New([]AttrPair{{0, 0}}, 2, 1, []Condition{Eq(0, hz)})
	got := r.String(rel, ms)
	want := "(((city,city_m)) -> (case,case_m), tp[city=HZ])"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// renderContexts returns a rule over testRelation's schema and three
// render contexts with their expected strings: the rule's own relation,
// a relation over the same schema whose pool interns the city values
// in the other order, and the first relation against a master schema
// with other attribute names.
func renderContexts() (*Rule, []*relation.Relation, []*relation.Schema, []string) {
	rel := testRelation()
	other := relation.New(rel.Schema(), relation.NewPool())
	other.AppendRow([]string{"BJ", "10021", "imports"})
	other.AppendRow([]string{"HZ", "31200", "patient"})
	ms := relation.NewSchema(relation.Attribute{Name: "city_m"}, relation.Attribute{Name: "case_m"})
	ms2 := relation.NewSchema(relation.Attribute{Name: "town"}, relation.Attribute{Name: "kind"})
	hz, _ := rel.Dict(0).Lookup("HZ")
	r := New([]AttrPair{{0, 0}}, 2, 1, []Condition{Eq(0, hz)})
	return r,
		[]*relation.Relation{rel, other, rel},
		[]*relation.Schema{ms, ms, ms2},
		[]string{
			"(((city,city_m)) -> (case,case_m), tp[city=HZ])",
			"(((city,city_m)) -> (case,case_m), tp[city=BJ])",
			"(((city,town)) -> (case,kind), tp[city=HZ])",
		}
}

// TestStringPerContext pins String's memo to its render context: each
// context gets its own string, also when a context comes back after
// another replaced the stored rendering, and a rendered rule's children
// start unrendered.
func TestStringPerContext(t *testing.T) {
	r, rels, masters, want := renderContexts()
	for _, i := range []int{0, 0, 1, 0, 2, 1, 2, 0} {
		if got := r.String(rels[i], masters[i]); got != want[i] {
			t.Errorf("context %d: String = %q, want %q", i, got, want[i])
		}
	}
	for _, child := range []*Rule{r.WithLHS(1, 1), r.WithCondition(Eq(1, 0))} {
		if child.rendered.Load() != nil {
			t.Errorf("child %s carried its parent's rendering over", child.Key())
		}
	}
}

// TestStringConcurrent renders one shared rule from 8 goroutines, each
// cycling through the contexts; run it under -race.
func TestStringConcurrent(t *testing.T) {
	r, rels, masters, want := renderContexts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (g + k/50) % len(want)
				if got := r.String(rels[i], masters[i]); got != want[i] {
					t.Errorf("goroutine %d, context %d: String = %q, want %q", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func randomRule(rng *rand.Rand) *Rule {
	var lhs []AttrPair
	for a := 0; a < 4; a++ {
		if rng.Intn(2) == 0 {
			lhs = append(lhs, AttrPair{Input: a, Master: a})
		}
	}
	var pat []Condition
	for a := 0; a < 4; a++ {
		if rng.Intn(3) == 0 {
			pat = append(pat, Eq(a, int32(rng.Intn(3))))
		}
	}
	return New(lhs, 5, 5, pat)
}

// Property: a rule always dominates its refinements, and domination is
// irreflexive.
func TestDominationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		r := randomRule(rng)
		if Dominates(r, r) {
			t.Fatalf("rule dominates itself: %s", r.Key())
		}
		// Refine with a fresh LHS attribute.
		for a := 0; a < 5; a++ {
			if !r.HasLHSAttr(a) && a != 5 {
				child := r.WithLHS(a, a)
				if !Dominates(r, child) {
					t.Fatalf("parent does not dominate LHS child:\n%s\n%s", r.Key(), child.Key())
				}
				if Dominates(child, r) {
					t.Fatalf("child dominates parent")
				}
				break
			}
		}
		// Refine with a fresh pattern condition.
		for a := 0; a < 5; a++ {
			if !r.HasPatternAttr(a) {
				child := r.WithCondition(Eq(a, 9))
				if !Dominates(r, child) {
					t.Fatalf("parent does not dominate pattern child")
				}
				break
			}
		}
	}
}

func TestDominatesRequiresSameTarget(t *testing.T) {
	a := New([]AttrPair{{0, 0}}, 2, 2, nil)
	b := New([]AttrPair{{0, 0}, {1, 1}}, 3, 2, nil)
	if Dominates(a, b) {
		t.Error("rules with different Y should not dominate")
	}
}

func TestDominatesDifferentPatternValues(t *testing.T) {
	a := New([]AttrPair{{0, 0}}, 2, 2, []Condition{Eq(1, 1)})
	b := New([]AttrPair{{0, 0}}, 2, 2, []Condition{Eq(1, 2)})
	if Dominates(a, b) || Dominates(b, a) {
		t.Error("sibling pattern rules should be incomparable")
	}
}

func TestPatternDominates(t *testing.T) {
	p1 := []Condition{Eq(0, 1)}
	p2 := []Condition{Eq(0, 1), Eq(2, 3)}
	if !PatternDominates(p1, p2) {
		t.Error("subset pattern should dominate")
	}
	if PatternDominates(p2, p1) {
		t.Error("superset pattern should not dominate")
	}
	if !PatternDominates(nil, p1) {
		t.Error("empty pattern dominates everything")
	}
	p3 := []Condition{Eq(0, 9)}
	if PatternDominates(p3, p2) {
		t.Error("same attr different value should not dominate")
	}
}

func TestTopKNonRedundant(t *testing.T) {
	general := New([]AttrPair{{0, 0}}, 5, 5, nil)
	refined := New([]AttrPair{{0, 0}}, 5, 5, []Condition{Eq(1, 1)})
	sibling := New([]AttrPair{{0, 0}}, 5, 5, []Condition{Eq(1, 2)})
	other := New([]AttrPair{{2, 2}}, 5, 5, nil)

	// The refined rule has the highest utility: it is selected first,
	// its dominating general parent is excluded, its sibling and the
	// unrelated rule survive.
	cands := []Scored{
		{Rule: general, Utility: 5},
		{Rule: refined, Utility: 10},
		{Rule: sibling, Utility: 7},
		{Rule: other, Utility: 3},
	}
	got := TopKNonRedundant(cands, 10)
	keys := make(map[string]bool)
	for _, g := range got {
		keys[g.Rule.Key()] = true
	}
	if !keys[refined.Key()] || !keys[sibling.Key()] || !keys[other.Key()] {
		t.Errorf("missing expected rules: %v", keys)
	}
	if keys[general.Key()] {
		t.Error("dominating general rule selected alongside refinement")
	}
	if len(got) != 3 {
		t.Errorf("selected %d rules, want 3", len(got))
	}

	// K truncates.
	if got := TopKNonRedundant(cands, 1); len(got) != 1 || got[0].Rule.Key() != refined.Key() {
		t.Errorf("top-1 = %v", got)
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	a := New([]AttrPair{{0, 0}}, 5, 5, nil)
	b := New([]AttrPair{{1, 1}}, 5, 5, nil)
	c1 := TopKNonRedundant([]Scored{{Rule: a, Utility: 1}, {Rule: b, Utility: 1}}, 2)
	c2 := TopKNonRedundant([]Scored{{Rule: b, Utility: 1}, {Rule: a, Utility: 1, Key: a.Key()}}, 2)
	if c1[0].Rule.Key() != c2[0].Rule.Key() {
		t.Error("tie break depends on input order")
	}
	for _, s := range append(c1, c2...) {
		if s.Key != s.Rule.Key() {
			t.Errorf("selected entry carries key %q, want %q", s.Key, s.Rule.Key())
		}
	}
}

// fmtKey is the fmt rendering Rule.Key replaced, kept as the reference
// its bytes must match: keys order top-K ties and key maps, so a changed
// byte would reorder mined rules.
func fmtKey(r *Rule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Y%d:%d|L", r.Y, r.Ym)
	for _, p := range r.LHS {
		fmt.Fprintf(&b, "(%d,%d)", p.Input, p.Master)
	}
	b.WriteString("|P")
	for _, c := range r.Pattern {
		if c.Negate {
			fmt.Fprintf(&b, "(!%d:", c.Attr)
		} else {
			fmt.Fprintf(&b, "(%d:", c.Attr)
		}
		for i, code := range c.Codes {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", code)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// TestKeyMatchesFmt pins Rule.Key byte for byte to its fmt rendering on
// the shapes rules take: empty, empty pattern, multi-pair LHS, negated
// and multi-code conditions, labels (excluded from the key) and codes
// wide enough to outgrow the key's stack buffer.
func TestKeyMatchesFmt(t *testing.T) {
	wide := make([]int32, 40)
	for i := range wide {
		wide[i] = int32(1000003 * (i + 1))
	}
	for _, r := range []*Rule{
		New(nil, 0, 0, nil),
		New([]AttrPair{{3, 7}}, 12, 9, nil),
		New([]AttrPair{{4, 1}, {0, 0}, {2, 11}}, 5, 5, nil),
		New(nil, 5, 5, []Condition{NotEq(3, 17)}),
		New([]AttrPair{{0, 0}}, 5, 5, []Condition{NewCondition(1, []int32{9, 2, 40}, "b∈{…}"), NotEq(6, 0)}),
		New([]AttrPair{{1, 1}, {2, 2}}, 10, 8, []Condition{Eq(0, 3), NewCondition(4, wide, ""), NotEq(7, 123456)}),
		New([]AttrPair{{0, 0}}, 5, 5, []Condition{{Attr: 2, Negate: true}}),
	} {
		if got, want := r.Key(), fmtKey(r); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
	}
}
