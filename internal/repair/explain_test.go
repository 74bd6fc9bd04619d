package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/rule"
)

// explainRef is Explain as it was before histograms carried their
// ranking: it sums into a map and sorts each rule's candidates through
// a closure. It is the reference the ranked Explain is held to.
func explainRef(ev *measure.Evaluator, rules []*rule.Rule, row int) Explanation {
	out := Explanation{Row: row, Fix: relation.Null}
	total := make(map[int32]float64)
	for _, r := range rules {
		h, ok := ev.Candidates(r, row)
		if !ok || h.Total == 0 {
			continue
		}
		e := Evidence{Rule: r}
		for v, c := range h.Counts {
			score := float64(c) / float64(h.Total)
			e.Candidates = append(e.Candidates, Candidate{Value: v, Score: score, Count: c})
			total[v] += score
		}
		sort.Slice(e.Candidates, func(i, j int) bool {
			a, b := e.Candidates[i], e.Candidates[j]
			if a.Score != b.Score {
				return a.Score > b.Score
			}
			return a.Value < b.Value
		})
		out.Evidence = append(out.Evidence, e)
	}
	for v, s := range total {
		if s > out.Score || (s == out.Score && (out.Fix == relation.Null || v < out.Fix)) {
			out.Fix = v
			out.Score = s
		}
	}
	return out
}

// explainProblem builds a random input/master pair over a join key A, a
// second key B, a guard G and the dependent Y, with a rule set mixing
// one- and two-attribute LHSs, guards and a negated guard.
func explainProblem(rng *rand.Rand) (input, master *relation.Relation, rules []*rule.Rule) {
	pool := relation.NewPool()
	input = relation.New(relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "B", Domain: "b"},
		relation.Attribute{Name: "G"},
		relation.Attribute{Name: "Y", Domain: "y"},
	), pool)
	master = relation.New(relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "B", Domain: "b"},
		relation.Attribute{Name: "Y", Domain: "y"},
	), pool)
	pick := func(prefix string, n int) string {
		if rng.Intn(12) == 0 {
			return ""
		}
		return fmt.Sprintf("%s%d", prefix, rng.Intn(n))
	}
	for i := 0; i < 240; i++ {
		master.AppendRow([]string{pick("a", 6), pick("b", 3), pick("y", 5)})
	}
	for i := 0; i < 120; i++ {
		input.AppendRow([]string{pick("a", 7), pick("b", 3), pick("g", 3), pick("y", 5)})
	}
	g0 := input.Dict(2).Code("g0")
	a, b := rule.AttrPair{Input: 0, Master: 0}, rule.AttrPair{Input: 1, Master: 1}
	rules = []*rule.Rule{
		rule.New([]rule.AttrPair{a}, 3, 2, nil),
		rule.New([]rule.AttrPair{b}, 3, 2, nil),
		rule.New([]rule.AttrPair{a, b}, 3, 2, nil),
		rule.New([]rule.AttrPair{b}, 3, 2, []rule.Condition{rule.Eq(2, g0)}),
		rule.New([]rule.AttrPair{a}, 3, 2, []rule.Condition{rule.NotEq(2, g0)}),
	}
	return input, master, rules
}

// TestExplainMatchesReference holds Explain to explainRef on every row
// of a random problem, before and after a master append that the shared
// index cache splices in: the spliced histograms must be re-ranked.
func TestExplainMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		input, master, rules := explainProblem(rng)
		cache := measure.NewIndexCache()
		check := func(tag string) {
			t.Helper()
			ev := measure.NewSharedEvaluator(input, master, nil, cache)
			for row := 0; row < input.NumRows(); row++ {
				want := explainRef(ev, rules, row)
				if got := Explain(ev, rules, row); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s row %d: Explain diverged from the reference:\ngot  %+v\nwant %+v",
						seed, tag, row, got, want)
				}
			}
		}
		check("before the append")

		// Skewed appends move the counts far enough to reorder the
		// candidates of many groups.
		var appends [][]int32
		for i := 0; i < 160; i++ {
			appends = append(appends, []int32{
				master.Dict(0).Code(fmt.Sprintf("a%d", rng.Intn(6))),
				master.Dict(1).Code(fmt.Sprintf("b%d", rng.Intn(3))),
				master.Dict(2).Code(fmt.Sprintf("y%d", rng.Intn(2)+3)),
			})
		}
		cs, err := master.ApplyDelta(relation.Delta{Appends: appends})
		if err != nil {
			t.Fatal(err)
		}
		builtBefore := cache.Len()
		cache.ApplyDelta(master, cs)
		if cache.Len() != builtBefore {
			t.Fatalf("seed %d: an append dropped %d cached indexes instead of splicing them",
				seed, builtBefore-cache.Len())
		}
		check("after the append")
	}
}
