package measure

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"erminer/internal/relation"
	"erminer/internal/rule"
)

// fuzzPair builds a random input/master pair over a 4-attribute schema
// (A, B, G, Y matched to A, B, Y) with Null cells sprinkled in, so the
// differential fuzz exercises the -1 group id, absent master keys and
// the Null-never-matches pattern semantics.
func fuzzPair(rng *rand.Rand, nIn, nMaster int) (input, master *relation.Relation) {
	pool := relation.NewPool()
	in := relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "B", Domain: "b"},
		relation.Attribute{Name: "G"},
		relation.Attribute{Name: "Y", Domain: "y"},
	)
	ms := relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "B", Domain: "b"},
		relation.Attribute{Name: "Y", Domain: "y"},
	)
	cell := func(prefix string, dom int) string {
		if rng.Intn(6) == 0 {
			return "" // Null
		}
		return fmt.Sprintf("%s%d", prefix, rng.Intn(dom))
	}
	input = relation.New(in, pool)
	for i := 0; i < nIn; i++ {
		input.AppendRow([]string{cell("a", 4), cell("b", 3), cell("g", 3), cell("y", 4)})
	}
	master = relation.New(ms, pool)
	for i := 0; i < nMaster; i++ {
		master.AppendRow([]string{cell("a", 4), cell("b", 3), cell("y", 4)})
	}
	return input, master
}

// fuzzRules derives a random rule set over fuzzPair's schema: random
// LHS subsets and random pattern conditions (either polarity, one to
// three codes, possibly over codes absent from the input).
func fuzzRules(rng *rand.Rand, input *relation.Relation) []*rule.Rule {
	allPairs := []rule.AttrPair{{Input: 0, Master: 0}, {Input: 1, Master: 1}}
	var rules []*rule.Rule
	for i := 0; i < 12; i++ {
		var lhs []rule.AttrPair
		for _, p := range allPairs {
			if rng.Intn(2) == 0 {
				lhs = append(lhs, p)
			}
		}
		var pattern []rule.Condition
		for attr := 0; attr < 3; attr++ {
			if rng.Intn(3) != 0 {
				continue
			}
			ncodes := 1 + rng.Intn(3)
			codes := make([]int32, ncodes)
			for j := range codes {
				// Codes range over the dictionary, including values the
				// input column may not contain.
				codes[j] = int32(rng.Intn(input.Dict(attr).Size() + 1))
			}
			cond := rule.NewCondition(attr, codes, "")
			cond.Negate = rng.Intn(3) == 0
			if len(cond.Codes) > 0 {
				pattern = append(pattern, cond)
			}
		}
		rules = append(rules, rule.New(lhs, 3, 2, pattern))
	}
	return rules
}

// FuzzEvaluateColumnar is the differential fuzz of the columnar engine:
// for random relations and rules, Evaluate and PatternCover must be
// bit-identical — measures, cover contents and cover order — to the
// oracle, on full scans and on each rule evaluated as a child over its
// parent's cover through the refinement that made it.
func FuzzEvaluateColumnar(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(20))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(0), uint8(9))
	f.Add(int64(4), uint8(100), uint8(3))
	f.Add(int64(5), uint8(63), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nMaster uint8) {
		rng := rand.New(rand.NewSource(seed))
		input, master := fuzzPair(rng, int(nIn), int(nMaster))
		col := NewEvaluator(input, master, nil)
		o := newOracle(input, master, nil)
		for i, r := range fuzzRules(rng, input) {
			want := o.Evaluate(r, nil)
			got := col.Evaluate(r, nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("rule %d (%s): Evaluate(nil) diverged:\noracle   %+v\ncolumnar %+v",
					i, r.Key(), want, got)
			}
			if pc := col.PatternCover(r, nil); !reflect.DeepEqual(pc, want.PatternCover) {
				t.Fatalf("rule %d (%s): PatternCover(nil) = %v, want %v", i, r.Key(), pc, want.PatternCover)
			}
			col.ReleaseCover(got.PatternCover)
			// The same rule as a child of its parent, over a parent
			// cover with holes: the engine tests only the condition
			// the refinement adds, the oracle every condition.
			parent, added, ok := parentOf(r)
			if !ok {
				continue
			}
			holes := everyOther(o.PatternCover(parent, nil))
			want2 := o.Evaluate(r, holes)
			got2 := col.Evaluate(r, &Refinement{ParentCover: holes, Added: added})
			if !reflect.DeepEqual(want2, got2) {
				t.Fatalf("rule %d (%s): Evaluate(child) diverged:\noracle   %+v\ncolumnar %+v",
					i, r.Key(), want2, got2)
			}
			col.ReleaseCover(got2.PatternCover)
		}
	})
}
