// Package core defines the editing-rule discovery problem (paper
// Problem 1) and the candidate refinement space shared by every miner in
// this repository: EnuMiner walks the space exhaustively, while RLMiner's
// MDP uses it as its action space.
//
// A refinement unit is either an LHS attribute pair (A, A_m) with
// A_m ∈ M(A), or a pattern condition on an attribute A ∈ R \ {Y}. Pattern
// conditions implement the domain-compression encoding of §IV-A:
// continuous attributes are split into N_split ranges, and discrete
// attributes whose active domain exceeds a threshold are grouped into
// common-prefix buckets, reducing the encoding dimension from |dom(A)| to
// K ≪ |dom(A)|.
package core

import (
	"fmt"
	"runtime"

	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/rule"
	"erminer/internal/schema"
)

// Problem is one editing-rule discovery instance (Problem 1): input data
// D, master data D_m, the schema match M, the dependent attribute pair
// (Y, Y_m), the support threshold η_s and the rule budget K.
type Problem struct {
	Input  *relation.Relation
	Master *relation.Relation
	Match  *schema.Match
	Y, Ym  int
	// Truth optionally holds the ground-truth Y codes of the input
	// tuples (the labelled data D_l). Nil means the observed input
	// stands in for D_l, giving the approximate Quality of §II-B3.
	Truth []int32
	// SupportThreshold is η_s.
	SupportThreshold int
	// TopK is the rule budget K (Problem 1); 0 means the paper default.
	TopK int
	// Parallelism is the worker budget of EnuMiner's level-synchronized
	// frontier: how many evaluator shards expand candidates at once.
	// Zero selects runtime.NumCPU(); 1 forces the exact serial walk.
	// Every setting produces a bit-identical result (DESIGN.md decision
	// 11).
	Parallelism int
	// IndexCache, when non-nil, is borrowed by every evaluator built
	// for this problem, so mining, MDP reward queries and repair reuse
	// the same built master indexes. See ShareIndexes.
	IndexCache *measure.IndexCache
	// Columns, when non-nil, is the shared columnar store (posting
	// lists, group projections) over Input, borrowed by every evaluator
	// built for this problem. See ShareIndexes. It must index the same
	// relation as Input.
	Columns *measure.ColumnIndex
}

// DefaultTopK is the paper's K = 50 (§V-A2).
const DefaultTopK = 50

// K returns the effective rule budget.
func (p *Problem) K() int {
	if p.TopK > 0 {
		return p.TopK
	}
	return DefaultTopK
}

// Validate checks the problem for structural errors.
func (p *Problem) Validate() error {
	switch {
	case p.Input == nil:
		return fmt.Errorf("core: Problem.Input is nil")
	case p.Master == nil:
		return fmt.Errorf("core: Problem.Master is nil")
	case p.Match == nil:
		return fmt.Errorf("core: Problem.Match is nil")
	case p.Y < 0 || p.Y >= p.Input.Schema().Len():
		return fmt.Errorf("core: Y index %d out of range", p.Y)
	case p.Ym < 0 || p.Ym >= p.Master.Schema().Len():
		return fmt.Errorf("core: Ym index %d out of range", p.Ym)
	case p.SupportThreshold < 0:
		return fmt.Errorf("core: negative support threshold")
	case p.Parallelism < 0:
		return fmt.Errorf("core: negative parallelism")
	case p.Truth != nil && len(p.Truth) != p.Input.NumRows():
		return fmt.Errorf("core: Truth has %d entries for %d input tuples",
			len(p.Truth), p.Input.NumRows())
	}
	return nil
}

// Workers returns the effective parallelism: Parallelism when set,
// otherwise the machine's CPU count.
func (p *Problem) Workers() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.NumCPU()
}

// ShareIndexes equips the problem with a shared master-index cache and
// a shared columnar store, so every evaluator subsequently built from
// it — by the miners, the MDP reward path and the repair engine —
// reuses the same built indexes, posting lists and group projections
// instead of rebuilding them per component. Idempotent; returns p for
// chaining.
func (p *Problem) ShareIndexes() *Problem {
	if p.IndexCache == nil {
		p.IndexCache = measure.NewIndexCache()
	}
	if p.Columns == nil && p.Input != nil {
		p.Columns = measure.NewColumnIndex(p.Input)
	}
	return p
}

// NewEvaluator builds the measure evaluator for the problem, borrowing
// the shared index cache and columnar store when set.
func (p *Problem) NewEvaluator() *measure.Evaluator {
	var ev *measure.Evaluator
	if p.IndexCache != nil {
		ev = measure.NewSharedEvaluator(p.Input, p.Master, p.Truth, p.IndexCache)
	} else {
		ev = measure.NewEvaluator(p.Input, p.Master, p.Truth)
	}
	if p.Columns != nil && p.Columns.Relation() == p.Input {
		ev.ShareColumns(p.Columns)
	}
	return ev
}

// MinedRule pairs a discovered rule with its measures.
type MinedRule struct {
	Rule     *rule.Rule
	Measures measure.Measures
}

// ResultSet is the output of one mining run.
type ResultSet struct {
	// Rules is the non-redundant top-K set, in descending utility.
	Rules []MinedRule
	// Explored counts candidate rules whose measures were computed.
	Explored int
}

// RuleList extracts the bare rules for the repair engine.
func (rs *ResultSet) RuleList() []*rule.Rule {
	out := make([]*rule.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		out[i] = r.Rule
	}
	return out
}

// Miner is a rule-discovery algorithm.
type Miner interface {
	// Name identifies the algorithm ("EnuMiner", "RLMiner", "CTANE", ...).
	Name() string
	// Mine solves the problem.
	Mine(p *Problem) (*ResultSet, error)
}

// SelectTopK turns scored candidates into the non-redundant top-K result.
// Candidates with non-positive utility are discarded: a rule whose
// certainty and quality sum to zero or less proposes fixes that are
// wrong at least as often as right.
func SelectTopK(cands []MinedRule, k int) []MinedRule {
	scored := make([]rule.Scored, 0, len(cands))
	byKey := make(map[string]MinedRule, len(cands))
	for _, c := range cands {
		if c.Measures.Utility <= 0 {
			continue
		}
		scored = append(scored, rule.Scored{Rule: c.Rule, Utility: c.Measures.Utility})
		byKey[c.Rule.Key()] = c
	}
	top := rule.TopKNonRedundant(scored, k)
	out := make([]MinedRule, len(top))
	for i, s := range top {
		out[i] = byKey[s.Rule.Key()]
	}
	return out
}
