// Package cfd implements the CTANE baseline of the paper's experiments
// (§V-A2): constant conditional functional dependencies (CFDs) are mined
// from the clean master data with a levelwise, support-pruned lattice
// walk (after Fan et al., "Discovering conditional functional
// dependencies" [16, 17]), and the CFDs whose attributes are matched with
// input attributes are converted into editing rules.
//
// As the paper discusses (§I-A, §V-B2), this strategy ignores input-side
// conditions and inherits the master data's distribution, which is what
// produces its characteristically low recall in Table III.
package cfd

import (
	"sort"

	"erminer/internal/core"
	"erminer/internal/relation"
	"erminer/internal/rule"
)

// Config controls the CTANE run.
type Config struct {
	// MinConfidence is the CFD confidence threshold; a group structure
	// whose dominant Y value covers at least this fraction of matching
	// master tuples is emitted. Zero means the default 0.95.
	MinConfidence float64
	// MaxLevel bounds |X| + |t_p|; zero means the default 4.
	MaxLevel int
}

func (c Config) minConfidence() float64 {
	if c.MinConfidence > 0 {
		return c.MinConfidence
	}
	return 0.95
}

func (c Config) maxLevel() int {
	if c.MaxLevel > 0 {
		return c.MaxLevel
	}
	return 4
}

// Miner mines constant CFDs on master data and converts them to eRs.
type Miner struct {
	cfg Config
}

// New returns a CTANE miner.
func New(cfg Config) *Miner { return &Miner{cfg: cfg} }

// Name implements core.Miner.
func (m *Miner) Name() string { return "CTANE" }

// dim is one lattice dimension: a wildcard attribute or a constant.
type dim struct {
	attr  int   // master attribute
	code  int32 // constant value; ignored when wildcard
	isVar bool  // true: wildcard LHS attribute; false: constant
}

// cfdNode is one lattice element.
type cfdNode struct {
	vars   []int            // wildcard attrs, sorted
	consts []rule.Condition // constants as input... master-side conditions
	rows   []int32          // master rows matching the constants
	maxDim int
}

// mined is one emitted CFD.
type mined struct {
	vars    []int
	consts  []rule.Condition // conditions over master attributes
	support int
}

// Mine implements core.Miner.
func (m *Miner) Mine(p *core.Problem) (*core.ResultSet, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	master := p.Master

	// The master-side support threshold is η_s scaled by |D_m| / |D|
	// (at least 5).
	minSupp := p.SupportThreshold * master.NumRows() / maxInt(1, p.Input.NumRows())
	if minSupp < 5 {
		minSupp = 5
	}

	// Invert the match: master attribute → input attribute (first match).
	inputOf := make(map[int]int)
	for _, pr := range p.Match.Pairs() {
		if _, ok := inputOf[pr[1]]; !ok {
			inputOf[pr[1]] = pr[0]
		}
	}

	// Lattice dimensions over matched master attributes (excluding Y_m).
	var dims []dim
	attrs := make([]int, 0, len(inputOf))
	for am := range inputOf {
		if am != p.Ym {
			attrs = append(attrs, am)
		}
	}
	sort.Ints(attrs)
	for _, am := range attrs {
		dims = append(dims, dim{attr: am, isVar: true})
		for _, code := range master.DomainCodes(am) {
			dims = append(dims, dim{attr: am, code: code})
		}
	}

	allRows := make([]int32, master.NumRows())
	for i := range allRows {
		allRows[i] = int32(i)
	}
	root := &cfdNode{rows: allRows, maxDim: -1}

	var (
		queue    = []*cfdNode{root}
		emitted  []mined
		explored = 0
	)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if len(n.vars)+len(n.consts) >= m.cfg.maxLevel() {
			continue
		}
		for d := n.maxDim + 1; d < len(dims); d++ {
			dd := dims[d]
			if attrUsed(n, dd.attr) {
				continue
			}
			explored++
			child := &cfdNode{
				vars:   append([]int(nil), n.vars...),
				consts: append([]rule.Condition(nil), n.consts...),
				maxDim: d,
			}
			if dd.isVar {
				child.vars = append(child.vars, dd.attr)
				sort.Ints(child.vars)
				child.rows = n.rows
			} else {
				child.consts = append(child.consts, rule.Eq(dd.attr, dd.code))
				child.rows = filterRows(master, n.rows, dd.attr, dd.code)
			}
			if len(child.rows) < minSupp {
				continue // support pruning: refinements only shrink
			}
			if len(child.vars) > 0 {
				supp, conf := confidence(master, child, p.Ym)
				if supp >= minSupp && conf >= m.cfg.minConfidence() {
					emitted = append(emitted, mined{
						vars:    child.vars,
						consts:  child.consts,
						support: supp,
					})
					continue // minimality: do not refine a valid CFD
				}
			}
			queue = append(queue, child)
		}
	}

	rules := m.convert(p, inputOf, emitted)
	return &core.ResultSet{Rules: rules, Explored: explored}, nil
}

func attrUsed(n *cfdNode, attr int) bool {
	for _, a := range n.vars {
		if a == attr {
			return true
		}
	}
	for _, c := range n.consts {
		if c.Attr == attr {
			return true
		}
	}
	return false
}

func filterRows(master *relation.Relation, rows []int32, attr int, code int32) []int32 {
	out := make([]int32, 0, len(rows))
	col := master.Column(attr)
	for _, r := range rows {
		if col[r] == code {
			out = append(out, r)
		}
	}
	return out
}

// confidence groups the node's rows by its wildcard attributes and
// returns the support (rows with non-Null Y) and the CFD confidence: the
// fraction of rows whose Y equals their group's dominant Y value.
func confidence(master *relation.Relation, n *cfdNode, ym int) (int, float64) {
	type group struct {
		counts map[int32]int
		total  int
	}
	groups := make(map[string]*group)
	var key []byte
	for _, r := range n.rows {
		y := master.Code(int(r), ym)
		if y == relation.Null {
			continue
		}
		key = key[:0]
		ok := true
		for _, a := range n.vars {
			c := master.Code(int(r), a)
			if c == relation.Null {
				ok = false
				break
			}
			key = append(key, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		if !ok {
			continue
		}
		g := groups[string(key)]
		if g == nil {
			g = &group{counts: make(map[int32]int)}
			groups[string(key)] = g
		}
		g.counts[y]++
		g.total++
	}
	total, kept := 0, 0
	for _, g := range groups {
		max := 0
		for _, c := range g.counts {
			if c > max {
				max = c
			}
		}
		total += g.total
		kept += max
	}
	if total == 0 {
		return 0, 0
	}
	return total, float64(kept) / float64(total)
}

// convert maps the mined CFDs to editing rules over the input schema and
// selects the non-redundant top-K by master support (the CFDs carry no
// input-side utility by construction; the paper applies them as-is).
func (m *Miner) convert(p *core.Problem, inputOf map[int]int, emitted []mined) []core.MinedRule {
	ev := p.NewEvaluator()
	type cand struct {
		r    *rule.Rule
		supp int
	}
	var cands []cand
	seen := make(map[string]bool)
	for _, e := range emitted {
		var lhs []rule.AttrPair
		for _, am := range e.vars {
			lhs = append(lhs, rule.AttrPair{Input: inputOf[am], Master: am})
		}
		var pattern []rule.Condition
		ok := true
		for _, c := range e.consts {
			a, matched := inputOf[c.Attr]
			if !matched {
				ok = false
				break
			}
			// Codes are shared between matched attributes (common
			// dictionary domain), so the master-side constant carries
			// over unchanged.
			pattern = append(pattern, rule.NewCondition(a, c.Codes, ""))
		}
		if !ok {
			continue
		}
		r := rule.New(lhs, p.Y, p.Ym, pattern)
		if seen[r.Key()] {
			continue
		}
		seen[r.Key()] = true
		cands = append(cands, cand{r: r, supp: e.support})
	}

	// Non-redundant top-K by master support.
	scored := make([]rule.Scored, len(cands))
	for i, c := range cands {
		scored[i] = rule.Scored{Rule: c.r, Utility: float64(c.supp)}
	}
	top := rule.TopKNonRedundant(scored, p.K())

	out := make([]core.MinedRule, 0, len(top))
	for _, s := range top {
		out = append(out, core.MinedRule{
			Rule:     s.Rule,
			Measures: ev.Evaluate(s.Rule, nil),
		})
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
