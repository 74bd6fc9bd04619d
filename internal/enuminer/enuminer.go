// Package enuminer implements EnuMiner (paper §II-D), the
// enumeration-based editing-rule discovery baseline, and its heuristic
// variant EnuMinerH3 (§V-D2) that bounds rule length.
//
// EnuMiner performs a levelwise walk of the rule lattice in the style of
// CTANE: it starts from the empty rule and repeatedly refines rules by
// adding LHS attribute pairs or pattern conditions. The enumeration space
// N_enum = 2^|M| · Π_{A∈R\Y}(|dom(A)|+1) is exponential, so the miner
// deploys the pruning strategies the paper describes:
//
//   - support pruning: by Lemma 1, refinement never increases support, so
//     a subtree rooted at a rule below η_s is discarded;
//   - certainty pruning: a rule that already returns a single certain fix
//     (C = 1) is not refined further (Alg. 4 line 14);
//   - canonical ordered extension: each candidate rule is generated
//     exactly once (the role the paper's hash table plays);
//   - cover-index subspace search: children are evaluated only over the
//     parent's pattern cover (Alg. 4 lines 9–10), where only the one
//     condition the refinement adds is tested.
//
// The walk runs either serially or as a level-synchronized parallel
// frontier expansion: each BFS level's (node, dim) refinements fan out
// across a bounded pool of evaluator shards and are merged back in
// canonical order, so found rules, Explored counts and every pruning
// decision are bit-identical to the serial walk (DESIGN.md decision 11).
package enuminer

import (
	"sync"
	"sync/atomic"

	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/rule"
)

// Config controls an EnuMiner run.
type Config struct {
	// Space configures the candidate refinement space.
	Space core.SpaceConfig
	// MaxLHS and MaxPattern bound the rule shape; zero means unbounded.
	// EnuMinerH3 sets both to 3.
	MaxLHS, MaxPattern int
	// MaxExplored caps the number of evaluated candidates as a safety
	// valve; zero means no cap.
	MaxExplored int
}

// Miner is the enumeration-based discovery algorithm.
type Miner struct {
	cfg  Config
	name string
}

// New returns an EnuMiner with the given configuration.
func New(cfg Config) *Miner {
	return &Miner{cfg: cfg, name: "EnuMiner"}
}

// NewH3 returns EnuMinerH3: EnuMiner with LHS and pattern lengths bounded
// by 3 (§V-D2).
func NewH3(cfg Config) *Miner {
	cfg.MaxLHS, cfg.MaxPattern = 3, 3
	return &Miner{cfg: cfg, name: "EnuMinerH3"}
}

// Name implements core.Miner.
func (m *Miner) Name() string { return m.name }

// node is one lattice element during the walk.
type node struct {
	r      *rule.Rule
	cover  []int32
	maxDim int // canonical extension: children only add dims > maxDim
}

// Mine implements core.Miner.
func (m *Miner) Mine(p *core.Problem) (*core.ResultSet, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	spaceCfg := m.cfg.Space
	if spaceCfg.MinValueCount == 0 {
		spaceCfg.MinValueCount = p.SupportThreshold
	}
	space := core.BuildSpace(p, spaceCfg)
	ev := p.NewEvaluator()

	root := &node{
		r:      rule.New(nil, p.Y, p.Ym, nil),
		maxDim: -1,
	}
	rootMeasures := ev.Evaluate(root.r, nil)
	root.cover = rootMeasures.PatternCover

	var (
		found    []core.MinedRule
		explored int
	)
	// The frontier expands on Problem.Workers() workers; any count
	// produces a bit-identical ResultSet.
	if workers := p.Workers(); workers > 1 {
		found, explored = m.mineParallel(p, space, ev, root, workers)
	} else {
		found, explored = m.mineSerial(p, space, ev, root)
	}

	return &core.ResultSet{
		Rules:    core.SelectTopK(found, p.K()),
		Explored: explored,
	}, nil
}

// mineSerial is the original single-threaded levelwise walk; it is the
// reference the parallel path must match bit for bit.
func (m *Miner) mineSerial(p *core.Problem, space *core.Space, ev *measure.Evaluator, root *node) ([]core.MinedRule, int) {
	var (
		queue    = []*node{root}
		found    []core.MinedRule
		explored = 0
	)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for d := n.maxDim + 1; d < space.Dim(); d++ {
			child, ok := m.refine(space, n, d)
			if !ok {
				continue
			}
			if m.cfg.MaxExplored > 0 && explored >= m.cfg.MaxExplored {
				queue = nil
				break
			}
			explored++
			ms := ev.Evaluate(child.r, &measure.Refinement{ParentCover: n.cover, Added: space.Added(d)})
			child.cover = ms.PatternCover

			if len(child.r.LHS) == 0 {
				// A pattern-only node is an internal node: it cannot be
				// a rule, but its subtree can. Its support upper bound
				// is its cover size.
				if len(child.cover) >= p.SupportThreshold {
					queue = append(queue, child)
				} else {
					// Pruned: recycle the cover buffer. Found rules
					// keep ms.PatternCover (the same slice), so only
					// never-surfaced covers may be released.
					ev.ReleaseCover(child.cover)
					child.cover = nil
				}
				continue
			}
			if ms.Support < p.SupportThreshold {
				ev.ReleaseCover(child.cover)
				child.cover = nil
				continue // Lemma 1: the whole subtree is below η_s
			}
			found = append(found, core.MinedRule{Rule: child.r, Measures: ms})
			if ms.Certainty < 1 {
				queue = append(queue, child)
			}
		}
	}
	return found, explored
}

// task is one refinement of a BFS level awaiting evaluation: the child
// and how it was made from its parent.
type task struct {
	child *node
	from  measure.Refinement
}

// mineParallel is the level-synchronized frontier expansion. The BFS
// queue of the serial walk is processed level by level (the FIFO order
// is exactly level order, since every level-k node enters the queue
// before any level-k+1 node): each level's candidates are generated
// serially in canonical (node, dim) order — which also places the
// MaxExplored cap at precisely the candidate the serial walk would stop
// at — then evaluated concurrently by a pool of evaluator shards
// borrowing one shared index cache, and finally merged back in
// canonical order so found, Explored and every pruning decision match
// the serial walk bit for bit.
func (m *Miner) mineParallel(p *core.Problem, space *core.Space, ev *measure.Evaluator, root *node, workers int) ([]core.MinedRule, int) {
	shards := make([]*measure.Evaluator, workers)
	for i := range shards {
		shards[i] = ev.Shard()
	}

	var (
		found    []core.MinedRule
		explored int
		level    = []*node{root}
		tasks    []task
	)
	for len(level) > 0 {
		// Phase 1: generate this level's candidates canonically.
		// Refinement is a cheap structural check; the expensive part is
		// evaluation, which is what fans out.
		tasks = tasks[:0]
		capped := false
		for _, n := range level {
			for d := n.maxDim + 1; d < space.Dim(); d++ {
				child, ok := m.refine(space, n, d)
				if !ok {
					continue
				}
				if m.cfg.MaxExplored > 0 && explored >= m.cfg.MaxExplored {
					capped = true
					break
				}
				explored++
				tasks = append(tasks, task{
					child: child,
					from:  measure.Refinement{ParentCover: n.cover, Added: space.Added(d)},
				})
			}
			if capped {
				break
			}
		}

		// Phase 2: fan the evaluations out across the shard pool. Each
		// result lands in its own slot, so merging needs no locks.
		results := make([]measure.Measures, len(tasks))
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, shard := range shards {
			wg.Add(1)
			go func(shard *measure.Evaluator) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					results[i] = shard.Evaluate(tasks[i].child.r, &tasks[i].from)
				}
			}(shard)
		}
		wg.Wait()

		// Phase 3: merge in canonical order, applying exactly the
		// serial walk's pruning decisions.
		var nextLevel []*node
		for i, t := range tasks {
			ms := results[i]
			child := t.child
			child.cover = ms.PatternCover
			if len(child.r.LHS) == 0 {
				if len(child.cover) >= p.SupportThreshold {
					nextLevel = append(nextLevel, child)
				}
				continue
			}
			if ms.Support < p.SupportThreshold {
				continue // Lemma 1: the whole subtree is below η_s
			}
			found = append(found, core.MinedRule{Rule: child.r, Measures: ms})
			if ms.Certainty < 1 {
				nextLevel = append(nextLevel, child)
			}
		}
		if capped {
			break
		}
		level = nextLevel
	}

	for _, shard := range shards {
		ev.Stats.Add(shard.Stats)
	}
	return found, explored
}

// refine builds the child of n on dimension d, or reports that the
// dimension is inapplicable (attribute already used, or shape bound hit).
func (m *Miner) refine(space *core.Space, n *node, d int) (*node, bool) {
	if d < space.NumLHS() {
		pair := space.LHSPairs[d]
		if n.r.HasLHSAttr(pair.Input) {
			return nil, false
		}
		if m.cfg.MaxLHS > 0 && len(n.r.LHS) >= m.cfg.MaxLHS {
			return nil, false
		}
		return &node{r: n.r.WithLHS(pair.Input, pair.Master), maxDim: d}, true
	}
	unit := space.Unit(d)
	if n.r.HasPatternAttr(unit.Cond.Attr) {
		return nil, false
	}
	if m.cfg.MaxPattern > 0 && len(n.r.Pattern) >= m.cfg.MaxPattern {
		return nil, false
	}
	return &node{r: n.r.WithCondition(unit.Cond), maxDim: d}, true
}
