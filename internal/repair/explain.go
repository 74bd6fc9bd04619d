package repair

import (
	"fmt"
	"strings"

	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/rule"
)

// Evidence is one rule's contribution to a tuple's fix.
type Evidence struct {
	// Rule is the contributing rule.
	Rule *rule.Rule
	// Candidates lists the rule's candidate fixes with their certainty
	// scores σ_{v,φ}, highest first.
	Candidates []Candidate
}

// Candidate is one candidate fix value with its certainty score.
type Candidate struct {
	Value int32
	Score float64
	Count int
}

// Explanation justifies the fix proposed for one tuple.
type Explanation struct {
	Row int
	// Fix is the winning value (relation.Null when uncovered).
	Fix int32
	// Score is the winning value's summed certainty score.
	Score float64
	// Evidence lists each covering rule's candidates.
	Evidence []Evidence
}

// Explain reconstructs why the rule set proposes its fix for one input
// tuple: which rules cover it, what candidates each contributes, and how
// the certainty scores add up. This is the interpretability story
// rule-based cleaning is chosen for (paper §I: "easier to interpret and
// thus helpful for users to understand the data").
//
// Each rule's candidates come in its histogram's rank order: every
// score of one histogram divides by the same total, so count order is
// score order. Each value's scores are summed in rule order, as Apply
// sums them, so Fix and Score equal Apply's to the bit.
func Explain(ev *measure.Evaluator, rules []*rule.Rule, row int) Explanation {
	out := Explanation{Row: row, Fix: relation.Null}
	// total holds each value's summed score. A tuple meets few distinct
	// values, so a linear search beats a map.
	var buf [16]Candidate
	total := buf[:0]
	for _, r := range rules {
		h, ok := ev.Candidates(r, row)
		if !ok || h.Total == 0 {
			continue
		}
		e := Evidence{Rule: r, Candidates: make([]Candidate, len(h.Ranked))}
		for i, vc := range h.Ranked {
			score := float64(vc.Count) / float64(h.Total)
			e.Candidates[i] = Candidate{Value: vc.Value, Score: score, Count: vc.Count}
			j := 0
			for j < len(total) && total[j].Value != vc.Value {
				j++
			}
			if j == len(total) {
				total = append(total, Candidate{Value: vc.Value})
			}
			total[j].Score += score
		}
		out.Evidence = append(out.Evidence, e)
	}
	for _, t := range total {
		if t.Score > out.Score || (t.Score == out.Score && (out.Fix == relation.Null || t.Value < out.Fix)) {
			out.Fix = t.Value
			out.Score = t.Score
		}
	}
	return out
}

// Format renders the explanation with attribute names and values.
func (e Explanation) Format(input *relation.Relation, masterSchema *relation.Schema, y int) string {
	var b strings.Builder
	if e.Fix == relation.Null {
		fmt.Fprintf(&b, "tuple %d: no rule proposes a fix\n", e.Row)
		return b.String()
	}
	fmt.Fprintf(&b, "tuple %d: fix %s = %q (summed certainty %.3f)\n",
		e.Row, input.Schema().Attr(y).Name, input.Dict(y).Value(e.Fix), e.Score)
	for _, ev := range e.Evidence {
		fmt.Fprintf(&b, "  by %s\n", ev.Rule.String(input, masterSchema))
		for _, c := range ev.Candidates {
			fmt.Fprintf(&b, "     %q ×%d (σ = %.3f)\n",
				input.Dict(y).Value(c.Value), c.Count, c.Score)
		}
	}
	return b.String()
}
