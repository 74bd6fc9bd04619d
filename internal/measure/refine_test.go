package measure

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"erminer/internal/relation"
	"erminer/internal/rule"
)

// childKinds returns one child of parent for every kind of refinement
// over fuzzPair's schema: each LHS pair it lacks, and on each attribute
// its pattern leaves free a single-code, a multi-code, a negated
// single-code and a negated multi-code condition, with codes drawn from
// the attribute's dictionary (an extra code past it included).
func childKinds(rng *rand.Rand, input *relation.Relation, parent *rule.Rule) (children []*rule.Rule, added []*rule.Condition) {
	for _, p := range []rule.AttrPair{{Input: 0, Master: 0}, {Input: 1, Master: 1}} {
		if !parent.HasLHSAttr(p.Input) {
			children = append(children, parent.WithLHS(p.Input, p.Master))
			added = append(added, nil)
		}
	}
	for attr := 0; attr < 3; attr++ {
		if parent.HasPatternAttr(attr) {
			continue
		}
		size := input.Dict(attr).Size() + 1
		code := func() int32 { return int32(rng.Intn(size)) }
		for _, cond := range []rule.Condition{
			rule.Eq(attr, code()),
			rule.NewCondition(attr, []int32{code(), code(), code()}, ""),
			rule.NotEq(attr, code()),
			{Attr: attr, Codes: rule.NewCondition(attr, []int32{code(), code()}, "").Codes, Negate: true},
		} {
			c := parent.WithCondition(cond)
			children = append(children, c)
			for i := range c.Pattern {
				if c.Pattern[i].SameCodes(cond) {
					added = append(added, &c.Pattern[i])
				}
			}
		}
	}
	return children, added
}

// assertChildrenMatchOracle evaluates every kind of child of every rule
// over the parent's cover, on the engine through the child's refinement
// and on the oracle by testing every condition: measures, cover contents
// and cover order must be DeepEqual.
func assertChildrenMatchOracle(t *testing.T, rng *rand.Rand, ev *Evaluator, o *oracle, parents []*rule.Rule, tag string) {
	t.Helper()
	for i, parent := range parents {
		pm := ev.Evaluate(parent, nil)
		children, added := childKinds(rng, ev.Input(), parent)
		for j, child := range children {
			want := o.Evaluate(child, pm.PatternCover)
			from := &Refinement{ParentCover: pm.PatternCover, Added: added[j]}
			got := ev.Evaluate(child, from)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: parent %d (%s), child %s: Evaluate diverged:\noracle %+v\nengine %+v",
					tag, i, parent.Key(), child.Key(), want, got)
			}
			if pc := ev.PatternCover(child, from); !reflect.DeepEqual(pc, want.PatternCover) {
				t.Fatalf("%s: child %s: PatternCover = %v, want %v", tag, child.Key(), pc, want.PatternCover)
			}
			ev.ReleaseCover(got.PatternCover)
		}
	}
}

// TestChildCoverMatchesOracle is the differential suite of the
// refinement path: on random problems, LHS-only, single-code,
// multi-code and negated children evaluated over their parent's cover
// equal the oracle's all-conditions evaluation. It then patches the
// input with rows holding values new to each pattern attribute's
// dictionary, so column codes outgrow every mask the warm evaluator
// has sized, and conditions on the new codes grow the mask buffer; the
// same evaluator must still match an oracle built over the patched
// data.
func TestChildCoverMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		input, master := fuzzPair(rng, 120, 60)
		ev := NewEvaluator(input, master, nil)
		parents := append(fuzzRules(rng, input), rule.New(nil, 3, 2, nil))
		assertChildrenMatchOracle(t, rng, ev, newOracle(input, master, nil), parents,
			fmt.Sprintf("seed %d", seed))

		var d relation.Delta
		for i := 0; i < 12; i++ {
			row := make([]int32, input.NumCols())
			for attr := range row {
				row[attr] = input.Code(rng.Intn(input.NumRows()), attr)
				if attr < 3 && i%2 == 0 {
					row[attr] = input.Dict(attr).Code(fmt.Sprintf("new%d-%d", seed, i))
				}
			}
			d.Appends = append(d.Appends, row)
		}
		if _, err := input.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		assertChildrenMatchOracle(t, rng, ev, newOracle(input, master, nil), parents,
			fmt.Sprintf("seed %d, after a dictionary-growing patch", seed))
	}
}
