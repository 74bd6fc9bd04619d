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
// Each lattice edge is one core.Space.Refine, the step RLMiner's MDP
// takes too. The walk is a level-synchronized frontier expansion: each
// BFS level's (node, dim) refinements fan out across Problem.Workers()
// evaluator shards and are merged back in canonical order, so found
// rules, Explored counts and every pruning decision are those of a
// serial breadth-first walk at any worker count, 1 included (DESIGN.md
// decisions 11 and 28).
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
	root := rule.New(nil, p.Y, p.Ym, nil)
	start := node{r: root, cover: ev.Evaluate(root, nil).PatternCover, maxDim: -1}
	found, explored := m.walk(p, space, ev, start, p.Workers())
	return &core.ResultSet{
		Rules:    core.SelectTopK(found, p.K()),
		Explored: explored,
	}, nil
}

// task is one refinement of a BFS level: the child, how it was made
// from its parent, and its measures with the shard that computed them.
type task struct {
	child node
	from  measure.Refinement
	ms    measure.Measures
	shard int
}

// walk is the level-synchronized frontier expansion from root. A
// breadth-first queue holds every level-k node before any level-k+1
// node, so the walk takes it a level at a time:
//
//  1. generate the level's children in canonical (node, dim) order,
//     which also places the MaxExplored cap at the exact candidate a
//     serial walk stops at;
//  2. evaluate them on a pool of evaluator shards sharing ev's index
//     cache, one shard on this goroutine and the rest on their own;
//  3. merge them back in canonical order, applying the pruning
//     decisions and handing each pruned child's cover back to the
//     shard that evaluated it.
//
// Found rules, Explored and every pruning decision are therefore those
// of a serial walk at any worker count (DESIGN.md decisions 11, 28).
func (m *Miner) walk(p *core.Problem, space *core.Space, ev *measure.Evaluator, root node, workers int) ([]core.MinedRule, int) {
	shards := make([]*measure.Evaluator, workers)
	for i := range shards {
		shards[i] = ev.Shard()
	}

	var (
		found    []core.MinedRule
		explored int
		level    = []node{root}
		tasks    []task
		capped   bool
	)
	for len(level) > 0 && !capped {
		tasks = tasks[:0]
	generate:
		for _, n := range level {
			// The H3 shape bounds close a whole side of the space.
			lo, hi := n.maxDim+1, space.Dim()
			if m.cfg.MaxLHS > 0 && len(n.r.LHS) >= m.cfg.MaxLHS {
				lo = max(lo, space.NumLHS())
			}
			if m.cfg.MaxPattern > 0 && len(n.r.Pattern) >= m.cfg.MaxPattern {
				hi = space.NumLHS()
			}
			for d := lo; d < hi; d++ {
				child, ok := space.Refine(n.r, d)
				if !ok {
					continue
				}
				if m.cfg.MaxExplored > 0 && explored >= m.cfg.MaxExplored {
					capped = true
					break generate
				}
				explored++
				tasks = append(tasks, task{
					child: node{r: child, maxDim: d},
					from:  measure.Refinement{ParentCover: n.cover, Added: space.Added(d)},
				})
			}
		}

		// Each result lands in its own task, so the merge needs no locks.
		var claimed atomic.Int64
		evaluate := func(shard int) {
			for {
				i := int(claimed.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i].ms = shards[shard].Evaluate(tasks[i].child.r, &tasks[i].from)
				tasks[i].shard = shard
			}
		}
		var wg sync.WaitGroup
		for shard := 1; shard < len(shards); shard++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				evaluate(shard)
			}(shard)
		}
		evaluate(0)
		wg.Wait()

		var next []node
		for _, t := range tasks {
			child, ms := t.child, t.ms
			child.cover = ms.PatternCover
			switch {
			case len(child.r.LHS) == 0 && len(child.cover) >= p.SupportThreshold:
				// A pattern-only node cannot be a rule, but its
				// subtree can; its cover bounds that subtree's support.
				next = append(next, child)
			case len(child.r.LHS) == 0 || ms.Support < p.SupportThreshold:
				// Pruned (Lemma 1: the whole subtree is below η_s). No
				// found rule holds this cover, so its buffer is free.
				shards[t.shard].ReleaseCover(child.cover)
			default:
				found = append(found, core.MinedRule{Rule: child.r, Measures: ms})
				if ms.Certainty < 1 {
					next = append(next, child)
				}
			}
		}
		level = next
	}

	for _, shard := range shards {
		ev.Stats.Add(shard.Stats)
	}
	return found, explored
}
