// Package mdp implements the Editing Rule Discovery Markov Decision
// Process of paper Definition 5 and §III–IV: the environment that grows a
// rule tree (Alg. 4), the one-hot state encoding s = [s_l; s_p] (§IV-A),
// the action space a = [a_l; a_p; a_stop] (§IV-B), the rule mask
// (Alg. 1) and the utility-based reward function with its reward cache
// R_Σ and first-expansion shaping bonus (Alg. 2).
package mdp

import (
	"fmt"
	"sort"

	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/rule"
)

// Config tunes the environment. Zero values select the paper defaults;
// the Disable* flags exist for the ablation benchmarks (DESIGN.md §4).
type Config struct {
	// Space configures the refinement space (N_split, prefix buckets).
	Space core.SpaceConfig
	// StopReward is θ, the small positive reward of the stop action.
	// Zero means the paper default 0.01.
	StopReward float64
	// InvalidReward is the constant reward of a below-threshold rule.
	// Zero means the paper default -0.01.
	InvalidReward float64
	// DisableNormalize keeps rewards at raw utility scale. By default
	// utilities are divided by MaxUtility(|D|) so rewards live in
	// roughly [-1, 1], which stabilises the DQN (implementation choice;
	// see DESIGN.md).
	DisableNormalize bool
	// DisableShaping turns off the Alg. 2 lines 15–16 shaping bonus.
	DisableShaping bool
	// DisableGlobalMask turns off the Alg. 1 lines 12–17 global mask.
	DisableGlobalMask bool
	// DisableRewardCache turns off R_Σ reuse (rewards are recomputed).
	DisableRewardCache bool
	// DisableSeedSingletons turns off the warm start: by default every
	// episode's tree is pre-expanded with the singleton-LHS rules — the
	// first lattice level EnuMiner also starts from (§II-D) — so the
	// broad rules are always in the discovered set and the queue, and
	// the agent's exploration budget goes to the interesting deeper
	// space. This markedly reduces seed-to-seed variance on wide action
	// spaces (DESIGN.md §4).
	DisableSeedSingletons bool
	// MaxEpisodeSteps bounds one episode. Zero means 400.
	MaxEpisodeSteps int
}

func (c Config) stopReward() float64 {
	if c.StopReward != 0 {
		return c.StopReward
	}
	return 0.01
}

func (c Config) invalidReward() float64 {
	if c.InvalidReward != 0 {
		return c.InvalidReward
	}
	return -0.01
}

func (c Config) maxEpisodeSteps() int {
	if c.MaxEpisodeSteps > 0 {
		return c.MaxEpisodeSteps
	}
	return 400
}

// node is one rule-tree node.
type node struct {
	r        *rule.Rule
	key      string
	setDims  []int // sorted state dimensions set to 1
	cover    []int32
	children int
	parent   *node
}

// cachedMeasures is the R_Σ / utility cache entry for one rule.
type cachedMeasures struct {
	support   int
	certainty float64
	quality   float64
	utility   float64
	reward    float64
}

// StepResult is what one environment step returns.
type StepResult struct {
	// State is the next state's encoding.
	State []float64
	// Mask is the next state's action mask (true = allowed).
	Mask []bool
	// Reward is r_t.
	Reward float64
	// Done reports episode termination.
	Done bool
}

// Env is the rule-discovery environment.
type Env struct {
	cfg     Config
	problem *core.Problem
	space   *core.Space
	// ev serves the reward queries. It is built via Problem.NewEvaluator,
	// so when the problem carries a shared index cache and columnar
	// store (Problem.ShareIndexes) the reward path reuses the master
	// indexes, posting lists and projections already built by a miner or
	// the repair engine.
	ev   *measure.Evaluator
	norm float64 // utility normaliser

	// Persistent across episodes (Alg. 2's R_Σ).
	rewardCache map[string]cachedMeasures

	// Per-episode tree state.
	current    *node
	queue      []*node
	seen       map[string]*node // every rule generated this episode
	found      map[string]core.MinedRule
	steps      int
	done       bool
	discovered int

	// AllFound accumulates every above-threshold rule seen in any
	// episode (keyed by rule), for diagnostics.
	allFound map[string]core.MinedRule
}

// NewEnv builds the environment for a problem.
func NewEnv(p *core.Problem, cfg Config) (*Env, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	spaceCfg := cfg.Space
	if spaceCfg.MinValueCount == 0 {
		spaceCfg.MinValueCount = p.SupportThreshold
	}
	space := core.BuildSpace(p, spaceCfg)
	if space.Dim() == 0 {
		return nil, fmt.Errorf("mdp: empty refinement space (no matched attributes?)")
	}
	norm := 1.0
	if !cfg.DisableNormalize {
		norm = measure.MaxUtility(p.Input.NumRows())
		if norm <= 0 {
			norm = 1
		}
	}
	e := &Env{
		cfg:         cfg,
		problem:     p,
		space:       space,
		ev:          p.NewEvaluator(),
		norm:        norm,
		rewardCache: make(map[string]cachedMeasures),
		allFound:    make(map[string]core.MinedRule),
	}
	e.Reset()
	return e, nil
}

// Space returns the refinement space (the action-space layout).
func (e *Env) Space() *core.Space { return e.space }

// StateDim returns dim(s) = |s_l| + |s_p|.
func (e *Env) StateDim() int { return e.space.Dim() }

// ActionDim returns dim(a) = dim(s) + 1 (the stop action).
func (e *Env) ActionDim() int { return e.space.Dim() + 1 }

// StopAction returns the index of the stop action.
func (e *Env) StopAction() int { return e.space.Dim() }

// Reset starts a new episode with a fresh rule tree rooted at the empty
// rule s*, returning the initial state and mask.
func (e *Env) Reset() ([]float64, []bool) {
	// Recycle the finished episode's cover buffers: found/allFound keep
	// measures only (never PatternCover), so the tree nodes are the sole
	// owners of their covers and handing them back keeps steady-state
	// episodes allocation-free.
	for _, n := range e.seen {
		e.ev.ReleaseCover(n.cover)
		n.cover = nil
	}
	root := &node{
		r:   rule.New(nil, e.problem.Y, e.problem.Ym, nil),
		key: "",
	}
	root.cover = e.ev.PatternCover(root.r, nil)
	e.current = root
	e.queue = nil
	e.seen = map[string]*node{root.key: root}
	e.found = make(map[string]core.MinedRule)
	e.steps = 0
	e.done = false
	e.discovered = 0
	if !e.cfg.DisableSeedSingletons {
		e.seedSingletons(root)
	}
	return e.State(), e.Mask()
}

// seedSingletons pre-expands the root with every singleton-LHS rule —
// the first level of EnuMiner's lattice — registering them as
// discovered (when valid) and queueing the refinable ones. The agent's
// steps then go to the combinatorial part of the space. Evaluations are
// served from the reward cache after the first episode.
func (e *Env) seedSingletons(root *node) {
	for d := 0; d < e.space.NumLHS(); d++ {
		e.growChild(root, d)
		e.current = root // growChild may descend; the walk starts at s*
	}
	// Pre-seeding must not count toward episode termination on its own;
	// keep the discovery budget for the agent. (K is usually far larger
	// than the number of singleton rules, so this is a no-op guard.)
	if e.discovered >= e.problem.K() {
		e.done = true
	}
}

// State returns the current state encoding.
func (e *Env) State() []float64 {
	s := make([]float64, e.space.Dim())
	if e.current != nil {
		for _, d := range e.current.setDims {
			s[d] = 1
		}
	}
	return s
}

// Done reports whether the episode has terminated.
func (e *Env) Done() bool { return e.done }

// EpisodeSteps returns the number of steps taken this episode.
func (e *Env) EpisodeSteps() int { return e.steps }

// Found returns the rules discovered in the current episode.
func (e *Env) Found() []core.MinedRule {
	return sortedRules(e.found)
}

// AllFound returns every above-threshold rule discovered in any episode.
func (e *Env) AllFound() []core.MinedRule {
	return sortedRules(e.allFound)
}

func sortedRules(m map[string]core.MinedRule) []core.MinedRule {
	out := make([]core.MinedRule, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Measures.Utility != out[j].Measures.Utility {
			return out[i].Measures.Utility > out[j].Measures.Utility
		}
		return out[i].Rule.Key() < out[j].Rule.Key()
	})
	return out
}

// Mask computes the action mask of the current state (Alg. 1): local
// masking forbids re-constraining attributes already used by the current
// rule, global masking forbids actions that would regenerate a rule this
// episode already contains, and the stop action is never masked.
func (e *Env) Mask() []bool {
	m := make([]bool, e.ActionDim())
	if e.done || e.current == nil {
		m[e.StopAction()] = true
		return m
	}
	e.maskInto(m, e.current)
	return m
}

func (e *Env) maskInto(m []bool, n *node) {
	for i := range m {
		m[i] = true
	}
	// Local mask (Alg. 1 lines 3-11).
	for _, p := range n.r.LHS {
		for _, d := range e.space.PairDims(p.Input) {
			m[d] = false
		}
	}
	for _, c := range n.r.Pattern {
		for _, d := range e.space.UnitDims(c.Attr) {
			m[d] = false
		}
	}
	// Global mask (Alg. 1 lines 12-17): mask any action whose resulting
	// state already exists in the tree.
	if !e.cfg.DisableGlobalMask {
		for d := 0; d < e.space.Dim(); d++ {
			if !m[d] {
				continue
			}
			if _, exists := e.seen[childKey(n.setDims, d)]; exists {
				m[d] = false
			}
		}
	}
	m[e.StopAction()] = true
}

// childKey returns the canonical key of setDims ∪ {d}.
func childKey(setDims []int, d int) string {
	buf := make([]byte, 0, (len(setDims)+1)*2)
	inserted := false
	for _, x := range setDims {
		if !inserted && d < x {
			buf = appendDim(buf, d)
			inserted = true
		}
		buf = appendDim(buf, x)
	}
	if !inserted {
		buf = appendDim(buf, d)
	}
	return string(buf)
}

func appendDim(b []byte, d int) []byte {
	return append(b, byte(d), byte(d>>8))
}

func keyOf(setDims []int) string {
	buf := make([]byte, 0, len(setDims)*2)
	for _, d := range setDims {
		buf = appendDim(buf, d)
	}
	return string(buf)
}

// Step applies an action (Alg. 3 lines 12-16 driving Alg. 4 and Alg. 2).
func (e *Env) Step(action int) StepResult {
	if e.done {
		return StepResult{State: e.State(), Mask: e.Mask(), Done: true}
	}
	e.steps++
	budgetDone := e.steps >= e.cfg.maxEpisodeSteps()

	if action == e.StopAction() {
		// Stop refinement: move to the next node in level order.
		r := e.cfg.stopReward()
		if len(e.queue) == 0 {
			e.done = true
			return StepResult{State: e.State(), Mask: e.Mask(), Reward: r, Done: true}
		}
		e.current = e.queue[0]
		e.queue = e.queue[1:]
		e.done = budgetDone
		return StepResult{State: e.State(), Mask: e.Mask(), Reward: r, Done: e.done}
	}

	parent := e.current
	reward := e.growChild(parent, action)

	if e.discovered >= e.problem.K() || budgetDone {
		e.done = true
	}
	return StepResult{State: e.State(), Mask: e.Mask(), Reward: reward, Done: e.done}
}

// growChild generates the child of parent on dimension `action`,
// computes its reward, registers it in the tree and decides whether the
// walk descends into it. It returns the (possibly shaped) reward.
func (e *Env) growChild(parent *node, action int) float64 {
	childRule, ok := e.refine(parent.r, action)
	if !ok {
		// The action was masked for structural reasons; treat as an
		// invalid rule. (Agents only pick masked actions in tests.)
		return e.cfg.invalidReward()
	}
	setDims := insertDim(parent.setDims, action)
	key := keyOf(setDims)

	firstExpansion := parent.children == 0
	parent.children++

	cm, cached := e.rewardCache[key]
	var cover []int32
	if !cached || e.cfg.DisableRewardCache {
		ms := e.ev.Evaluate(childRule, parent.cover)
		cover = ms.PatternCover
		cm = cachedMeasures{
			support:   ms.Support,
			certainty: ms.Certainty,
			quality:   ms.Quality,
			utility:   ms.Utility,
		}
		if len(childRule.LHS) > 0 && ms.Support >= e.problem.SupportThreshold {
			cm.reward = ms.Utility / e.norm
		} else {
			cm.reward = e.cfg.invalidReward()
		}
		e.rewardCache[key] = cm
	}

	child := &node{
		r:       childRule,
		key:     key,
		setDims: setDims,
		parent:  parent,
	}
	e.seen[key] = child

	valid := len(childRule.LHS) > 0 && cm.support >= e.problem.SupportThreshold
	if valid {
		mined := core.MinedRule{
			Rule: childRule,
			Measures: measure.Measures{
				Support:   cm.support,
				Certainty: cm.certainty,
				Quality:   cm.quality,
				Utility:   cm.utility,
			},
		}
		if _, dup := e.found[key]; !dup {
			e.found[key] = mined
			e.discovered++
		}
		// Keyed by the dimension-set key (bijective with the rule, since
		// every dimension maps to one distinct refinement) so checkpoint
		// state can reconstruct the rule from the key alone.
		e.allFound[key] = mined
	}

	// Alg. 4 lines 14-17: only refinable nodes join the queue and are
	// descended into. A pattern-only node is refinable while its cover
	// can still satisfy η_s; a valid rule is refinable until certain.
	refinable := false
	if len(childRule.LHS) == 0 {
		if cover == nil {
			cover = e.ev.PatternCover(childRule, parent.cover)
		}
		refinable = len(cover) >= e.problem.SupportThreshold
	} else if valid && cm.certainty < 1 {
		refinable = true
	}
	if refinable {
		if cover == nil {
			cover = e.ev.PatternCover(childRule, parent.cover)
		}
		child.cover = cover
		e.queue = append(e.queue, child)
		e.current = child
	} else if cover != nil {
		// Evaluated but pruned: the cover will never be descended into,
		// so return its buffer to the evaluator.
		e.ev.ReleaseCover(cover)
	}

	// Reward (Alg. 2): base reward plus the first-expansion shaping
	// bonus r_t + (r_t − R_Σ(s_t)) when the parent had no children and
	// the child clears the support threshold.
	r := cm.reward
	if !e.cfg.DisableShaping && firstExpansion && valid {
		parentReward := 0.0
		if pm, ok := e.rewardCache[parent.key]; ok {
			parentReward = pm.reward
		}
		r += r - parentReward
	}
	return r
}

// refine applies a refinement dimension to a rule, mirroring
// enuminer's transition function.
func (e *Env) refine(r *rule.Rule, d int) (*rule.Rule, bool) {
	if d < e.space.NumLHS() {
		pair := e.space.LHSPairs[d]
		if r.HasLHSAttr(pair.Input) {
			return nil, false
		}
		return r.WithLHS(pair.Input, pair.Master), true
	}
	unit := e.space.Unit(d)
	if r.HasPatternAttr(unit.Cond.Attr) {
		return nil, false
	}
	return r.WithCondition(unit.Cond), true
}

func insertDim(setDims []int, d int) []int {
	out := make([]int, 0, len(setDims)+1)
	inserted := false
	for _, x := range setDims {
		if !inserted && d < x {
			out = append(out, d)
			inserted = true
		}
		out = append(out, x)
	}
	if !inserted {
		out = append(out, d)
	}
	return out
}

// Evaluator exposes the environment's evaluator (shared with repair).
func (e *Env) Evaluator() *measure.Evaluator { return e.ev }
