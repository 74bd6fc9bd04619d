package measure

import (
	"fmt"

	"erminer/internal/relation"
	"erminer/internal/rule"
)

// oracle is the row-at-a-time reference implementation of the paper's
// measures that the columnar engine replaced: a MatchesPattern scan for
// the cover, then per covered row a string key of t[X] probed in the
// master index, accumulated in row order. Given a parent cover it tests
// every condition of the rule on every parent row, where the engine is
// told the refinement and tests only the condition it adds. The
// differential, delta and fuzz suites pin Evaluator against it bit for
// bit (DESIGN.md decisions 23 and 27).
//
// It shares only buildIndex, appendLHSKey and Utility with the engine.
// Its master indexes live in a private map, so no IndexCache entry,
// cover freelist or projection memo of the engine can mask a bug. The
// map is never invalidated: build the oracle after mutating the data.
type oracle struct {
	input, master *relation.Relation
	// truth is the ground-truth Y column; nil reads the observed one.
	truth   []int32
	indexes map[string]masterIndex
}

func newOracle(input, master *relation.Relation, truth []int32) *oracle {
	return &oracle{input: input, master: master, truth: truth, indexes: make(map[string]masterIndex)}
}

// index returns the master index for the rule's (X_m, Y_m), building it
// on first use.
func (o *oracle) index(r *rule.Rule) masterIndex {
	attrs := make([]int, 0, len(r.LHS))
	for _, p := range r.LHS {
		attrs = append(attrs, p.Master)
	}
	key := fmt.Sprint(attrs, r.Ym)
	idx, ok := o.indexes[key]
	if !ok {
		idx = buildIndex(o.master, r)
		o.indexes[key] = idx
	}
	return idx
}

// inputKey encodes t[X] for the rule's LHS; ok is false when any LHS
// cell is Null (such a tuple cannot match any master tuple).
func (o *oracle) inputKey(r *rule.Rule, row int) (string, bool) {
	buf, ok := appendLHSKey(nil, o.input, row, r.LHS, false)
	return string(buf), ok
}

// truthCode returns the ground-truth Y code of input row.
func (o *oracle) truthCode(r *rule.Rule, row int) int32 {
	if o.truth != nil {
		return o.truth[row]
	}
	return o.input.Code(row, r.Y)
}

// PatternCover filters the parent cover (nil = all input rows) down to
// the rows matching the rule's whole pattern, keeping their order.
func (o *oracle) PatternCover(r *rule.Rule, parentCover []int32) []int32 {
	if parentCover == nil {
		n := o.input.NumRows()
		out := make([]int32, 0, n)
		for row := 0; row < n; row++ {
			if r.MatchesPattern(o.input, row) {
				out = append(out, int32(row))
			}
		}
		return out
	}
	out := make([]int32, 0, len(parentCover))
	for _, row := range parentCover {
		if r.MatchesPattern(o.input, int(row)) {
			out = append(out, row)
		}
	}
	return out
}

// Evaluate computes the rule's measures over the parent cover (nil =
// the whole input), as Evaluator.Evaluate specifies them.
func (o *oracle) Evaluate(r *rule.Rule, parentCover []int32) Measures {
	m := Measures{PatternCover: o.PatternCover(r, parentCover)}
	if len(r.LHS) == 0 {
		return m
	}
	idx := o.index(r)
	var sumC, sumK float64
	for _, row := range m.PatternCover {
		key, ok := o.inputKey(r, int(row))
		if !ok {
			continue
		}
		h, ok := idx[key]
		if !ok {
			continue
		}
		m.Support++
		sumC += h.Certainty()
		if h.Arg == o.truthCode(r, int(row)) {
			sumK++
		} else {
			sumK--
		}
	}
	if m.Support > 0 {
		m.Certainty = sumC / float64(m.Support)
		m.Quality = sumK / float64(m.Support)
		m.Utility = Utility(m.Support, m.Certainty, m.Quality)
	}
	return m
}

// Candidates returns Cand(t, φ) for input row, or ok=false when the
// tuple does not match t_p or joins no master tuple.
func (o *oracle) Candidates(r *rule.Rule, row int) (*Hist, bool) {
	if len(r.LHS) == 0 || !r.MatchesPattern(o.input, row) {
		return nil, false
	}
	key, ok := o.inputKey(r, row)
	if !ok {
		return nil, false
	}
	h, ok := o.index(r)[key]
	return h, ok
}
