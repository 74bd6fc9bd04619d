package enuminer

import (
	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/rule"
)

// mineSerial is the single-threaded breadth-first walk that the level
// walk replaced, kept as the oracle it must match bit for bit: one
// evaluator and one FIFO queue, each child evaluated as soon as it is
// made.
func (m *Miner) mineSerial(p *core.Problem, space *core.Space, ev *measure.Evaluator, root node) ([]core.MinedRule, int) {
	var (
		queue    = []node{root}
		found    []core.MinedRule
		explored = 0
	)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for d := n.maxDim + 1; d < space.Dim(); d++ {
			if d < space.NumLHS() && m.cfg.MaxLHS > 0 && len(n.r.LHS) >= m.cfg.MaxLHS {
				continue
			}
			if d >= space.NumLHS() && m.cfg.MaxPattern > 0 && len(n.r.Pattern) >= m.cfg.MaxPattern {
				continue
			}
			r, ok := space.Refine(n.r, d)
			if !ok {
				continue
			}
			if m.cfg.MaxExplored > 0 && explored >= m.cfg.MaxExplored {
				return found, explored
			}
			explored++
			ms := ev.Evaluate(r, &measure.Refinement{ParentCover: n.cover, Added: space.Added(d)})
			child := node{r: r, cover: ms.PatternCover, maxDim: d}

			if len(r.LHS) == 0 {
				// A pattern-only node is an internal node: it cannot be
				// a rule, but its subtree can. Its support upper bound
				// is its cover size.
				if len(child.cover) >= p.SupportThreshold {
					queue = append(queue, child)
				} else {
					ev.ReleaseCover(child.cover)
				}
				continue
			}
			if ms.Support < p.SupportThreshold {
				ev.ReleaseCover(child.cover)
				continue // Lemma 1: the whole subtree is below η_s
			}
			found = append(found, core.MinedRule{Rule: r, Measures: ms})
			if ms.Certainty < 1 {
				queue = append(queue, child)
			}
		}
	}
	return found, explored
}

// mineWith is Mine with the walk run on the given number of workers,
// or the serial oracle when workers is 0. It also returns the
// evaluator's stats, which Mine does not expose.
func (m *Miner) mineWith(p *core.Problem, workers int) (*core.ResultSet, measure.Stats) {
	cfg := m.cfg.Space
	if cfg.MinValueCount == 0 {
		cfg.MinValueCount = p.SupportThreshold
	}
	space := core.BuildSpace(p, cfg)
	ev := measure.NewEvaluator(p.Input, p.Master, p.Truth)
	r := rule.New(nil, p.Y, p.Ym, nil)
	root := node{r: r, cover: ev.Evaluate(r, nil).PatternCover, maxDim: -1}
	var (
		found    []core.MinedRule
		explored int
	)
	if workers == 0 {
		found, explored = m.mineSerial(p, space, ev, root)
	} else {
		found, explored = m.walk(p, space, ev, root, workers)
	}
	return &core.ResultSet{Rules: core.SelectTopK(found, p.K()), Explored: explored}, ev.Stats
}
