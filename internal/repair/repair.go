// Package repair applies a set of discovered editing rules to an input
// relation, producing per-tuple candidate fixes for the dependent
// attribute and aggregating them across rules by summed certainty score
// (paper §V-B2):
//
//	σ_{v,φ} = count(v,φ) / Σ_{v'} count(v',φ)
//	fix(t)  = argmax_v Σ_φ σ_{v,φ}
package repair

import (
	"context"
	"sync"

	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/rule"
)

// Result holds the outcome of applying a rule set.
type Result struct {
	// Pred[i] is the predicted Y code for input tuple i, or
	// relation.Null when no rule covers the tuple.
	Pred []int32
	// Score[i] is the winning candidate's summed certainty score.
	Score []float64
	// Covered is the number of tuples with at least one candidate fix.
	Covered int
}

// Apply evaluates every rule over the evaluator's input relation and
// aggregates candidate fixes. Rules must share the evaluator's dependent
// attribute pair (they do, by construction of the miners).
func Apply(ev *measure.Evaluator, rules []*rule.Rule) Result {
	res, _ := ApplyContext(context.Background(), ev, rules)
	return res
}

// applyScratch is the pooled per-call accumulation state of
// ApplyContext. The per-row score maps are retained (emptied, not
// freed) across calls, so a serving layer's steady-state repair
// requests stop allocating them.
type applyScratch struct {
	scores []map[int32]float64
}

var scratchPool = sync.Pool{New: func() any { return new(applyScratch) }}

// ApplyContext is Apply with cooperative cancellation: the context is
// checked between rules, so a serving layer can bound per-request repair
// latency. On cancellation it returns the context's error together with
// the aggregation over the rules fully applied so far (callers that want
// all-or-nothing should discard the partial result).
//
// Each rule is applied over its pattern cover — computed by the
// evaluator's columnar engine as a posting-list intersection — rather
// than by re-testing the pattern against every tuple, and candidate
// lookups go through the dense group-id projection
// (Evaluator.CoveredCandidates). The covered rows come back in
// ascending row order, exactly the order the former full scan visited
// them, so the floating-point accumulation is bit-identical.
func ApplyContext(ctx context.Context, ev *measure.Evaluator, rules []*rule.Rule) (Result, error) {
	n := ev.Input().NumRows()
	sc := scratchPool.Get().(*applyScratch)
	if cap(sc.scores) < n {
		sc.scores = make([]map[int32]float64, n)
	} else {
		sc.scores = sc.scores[:n]
	}
	scores := sc.scores
	defer func() {
		for i := range scores {
			if scores[i] != nil {
				clear(scores[i])
			}
		}
		scratchPool.Put(sc)
	}()

	var ctxErr error
	for _, r := range rules {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		applyRule(ev, r, scores)
	}

	res := Result{
		Pred:  make([]int32, n),
		Score: make([]float64, n),
	}
	for row := 0; row < n; row++ {
		res.Pred[row] = relation.Null
		m := scores[row]
		if len(m) == 0 {
			continue
		}
		best := relation.Null
		bestScore := -1.0
		for v, s := range m {
			if s > bestScore || (s == bestScore && v < best) {
				best, bestScore = v, s
			}
		}
		res.Pred[row] = best
		res.Score[row] = bestScore
		res.Covered++
	}
	return res, ctxErr
}

// applyRule accumulates one rule's candidate fixes into the per-row
// score maps: the rule's pattern cover (a posting-list intersection),
// one group-projection candidate lookup per covered row, and the
// certainty-weighted vote merge. It is the steady-state inner loop of a
// repair request, so it anchors the allocation budget on the repair
// side the way Evaluate anchors it on the measure side.
func applyRule(ev *measure.Evaluator, r *rule.Rule, scores []map[int32]float64) {
	cover := ev.PatternCover(r, nil)
	for _, row := range cover {
		h, ok := ev.CoveredCandidates(r, int(row))
		if !ok || h.Total == 0 {
			continue
		}
		m := scores[row]
		if m == nil {
			m = make(map[int32]float64, len(h.Counts))
			scores[row] = m
		}
		for v, c := range h.Counts {
			m[v] += float64(c) / float64(h.Total)
		}
	}
	ev.ReleaseCover(cover)
}

// WriteFixes writes the predicted values into the relation's dependent
// column. When onlyMissing is true, only Null cells are overwritten
// (imputation mode); otherwise every covered cell is updated (repair
// mode). It returns the number of cells changed.
func WriteFixes(rel *relation.Relation, y int, res Result, onlyMissing bool) int {
	changed := 0
	for row := 0; row < rel.NumRows(); row++ {
		p := res.Pred[row]
		if p == relation.Null {
			continue
		}
		cur := rel.Code(row, y)
		if onlyMissing && cur != relation.Null {
			continue
		}
		if cur != p {
			rel.SetCode(row, y, p)
			changed++
		}
	}
	return changed
}
