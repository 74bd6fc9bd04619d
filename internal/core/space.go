package core

import (
	"fmt"
	"sort"
	"strconv"

	"erminer/internal/relation"
	"erminer/internal/rule"
)

// SpaceConfig controls how the candidate refinement space is built.
type SpaceConfig struct {
	// NSplit is the number of ranges a continuous attribute's domain is
	// split into (§IV-A). Zero means the default of 4.
	NSplit int
	// MaxDomain is the K above which a discrete attribute's domain is
	// compressed into common-prefix buckets. Zero means the default
	// of 32.
	MaxDomain int
	// MinValueCount prunes pattern units whose value (or bucket) occurs
	// fewer than this many times in the input: such a condition can
	// never reach that support. Typically set to η_s. Zero disables.
	MinValueCount int
	// MaxValueFrac prunes pattern units matching more than this fraction
	// of input tuples: a near-universal condition (e.g. a prefix bucket
	// that swallowed the whole domain) filters nothing. Zero means the
	// default 0.95; negative disables.
	MaxValueFrac float64
	// NegatedUnits additionally emits negated conditions t_p[A] ≠ a for
	// small-domain discrete attributes — the ā pattern form of [18] that
	// the paper omits (§II-A) and this implementation supports as an
	// extension. Negated units obey the same count pruning.
	NegatedUnits bool
}

// DefaultNSplit and DefaultMaxDomain are the encoder defaults.
const (
	DefaultNSplit    = 4
	DefaultMaxDomain = 32
)

func (c SpaceConfig) nsplit() int {
	if c.NSplit > 0 {
		return c.NSplit
	}
	return DefaultNSplit
}

func (c SpaceConfig) maxDomain() int {
	if c.MaxDomain > 0 {
		return c.MaxDomain
	}
	return DefaultMaxDomain
}

// PatternUnit is one candidate pattern condition: one dimension of the
// state/action encoding.
type PatternUnit struct {
	Cond rule.Condition
}

// Space is the candidate refinement space of a problem: the enumeration
// universe of EnuMiner and the action space of RLMiner. Dimensions are
// laid out as [LHS pairs; pattern units], matching the state encoding
// s = [s_l; s_p] of §IV-A.
type Space struct {
	// LHSPairs lists every (A, A_m) with A ∈ R \ {Y}, A_m ∈ M(A).
	LHSPairs []rule.AttrPair
	// Units lists every candidate pattern condition over R \ {Y}.
	Units []PatternUnit
	// unitsByAttr indexes Units by input attribute.
	unitsByAttr map[int][]int
	// pairsByAttr indexes LHSPairs by input attribute.
	pairsByAttr map[int][]int
}

// Dim returns the total number of refinement dimensions |s_l| + |s_p|.
func (s *Space) Dim() int { return len(s.LHSPairs) + len(s.Units) }

// NumLHS returns |s_l|, the number of LHS attribute-pair dimensions.
func (s *Space) NumLHS() int { return len(s.LHSPairs) }

// Unit returns the pattern unit of dimension i (i ≥ NumLHS()).
func (s *Space) Unit(i int) PatternUnit { return s.Units[i-len(s.LHSPairs)] }

// Added returns the pattern condition that refining a rule on dimension
// d adds to it, or nil when d adds an LHS pair. Miners hand it to the
// evaluator as the child's measure.Refinement.
func (s *Space) Added(d int) *rule.Condition {
	if d < len(s.LHSPairs) {
		return nil
	}
	return &s.Units[d-len(s.LHSPairs)].Cond
}

// Refine returns the child of r on dimension d: r with the LHS pair or
// the pattern unit of d added. It reports false when r already
// constrains d's input attribute on that side. Every edge of the
// refinement lattice is one Refine: EnuMiner walks them and RLMiner's
// MDP takes them as actions.
func (s *Space) Refine(r *rule.Rule, d int) (*rule.Rule, bool) {
	if d < len(s.LHSPairs) {
		pair := s.LHSPairs[d]
		if r.HasLHSAttr(pair.Input) {
			return nil, false
		}
		return r.WithLHS(pair.Input, pair.Master), true
	}
	cond := s.Units[d-len(s.LHSPairs)].Cond
	if r.HasPatternAttr(cond.Attr) {
		return nil, false
	}
	return r.WithCondition(cond), true
}

// UnitDims returns the dimensions of the pattern units on attribute a.
func (s *Space) UnitDims(a int) []int { return s.unitsByAttr[a] }

// PairDims returns the dimensions of the LHS pairs on input attribute a.
func (s *Space) PairDims(a int) []int { return s.pairsByAttr[a] }

// DimID returns a stable semantic identity for dimension d, used to map
// dimensions between the spaces of an original and an enriched problem
// when RLMiner-ft transfers a trained value network (§V-D3). LHS pairs
// are identified by their attribute indices; equality units by attribute
// and code (codes are stable because dictionaries only grow); range and
// bucket units by their label.
func (s *Space) DimID(d int) string {
	if d < len(s.LHSPairs) {
		p := s.LHSPairs[d]
		return fmt.Sprintf("L:%d:%d", p.Input, p.Master)
	}
	u := s.Unit(d)
	neg := ""
	if u.Cond.Negate {
		neg = "!"
	}
	if u.Cond.Label != "" {
		return fmt.Sprintf("P:%s%d:%s", neg, u.Cond.Attr, u.Cond.Label)
	}
	if len(u.Cond.Codes) == 1 {
		return fmt.Sprintf("P:%s%d:=%d", neg, u.Cond.Attr, u.Cond.Codes[0])
	}
	return fmt.Sprintf("P:%s%d:set%v", neg, u.Cond.Attr, u.Cond.Codes)
}

// BuildSpace constructs the refinement space of a problem.
func BuildSpace(p *Problem, cfg SpaceConfig) *Space {
	s := &Space{
		unitsByAttr: make(map[int][]int),
		pairsByAttr: make(map[int][]int),
	}
	in := p.Input
	rs := in.Schema()

	// s_l: one dimension per matched attribute pair, excluding Y.
	for _, a := range p.Match.InputAttrs() {
		if a == p.Y {
			continue
		}
		for _, am := range p.Match.Of(a) {
			if am == p.Ym {
				// The dependent master attribute never joins the LHS.
				continue
			}
			s.pairsByAttr[a] = append(s.pairsByAttr[a], len(s.LHSPairs))
			s.LHSPairs = append(s.LHSPairs, rule.AttrPair{Input: a, Master: am})
		}
	}

	// s_p: pattern units per attribute A ∈ R \ {Y}.
	for a := 0; a < rs.Len(); a++ {
		if a == p.Y {
			continue
		}
		var units []rule.Condition
		if rs.Attr(a).Type == relation.Continuous {
			units = continuousUnits(in, a, cfg.nsplit())
		} else {
			units = discreteUnits(in, a, cfg.maxDomain())
			if cfg.NegatedUnits && len(in.DomainCodes(a)) <= cfg.maxDomain() {
				for _, code := range in.DomainCodes(a) {
					units = append(units, rule.NotEq(a, code))
				}
			}
		}
		maxFrac := cfg.MaxValueFrac
		if maxFrac == 0 {
			maxFrac = 0.95
		}
		for _, u := range units {
			n := countMatching(in, u)
			if cfg.MinValueCount > 0 && n < cfg.MinValueCount {
				continue
			}
			if maxFrac > 0 && float64(n) > maxFrac*float64(in.NumRows()) {
				continue
			}
			s.unitsByAttr[a] = append(s.unitsByAttr[a], len(s.LHSPairs)+len(s.Units))
			s.Units = append(s.Units, PatternUnit{Cond: u})
		}
	}
	return s
}

// countMatching counts input tuples satisfying the condition.
func countMatching(in *relation.Relation, c rule.Condition) int {
	n := 0
	col := in.Column(c.Attr)
	for _, code := range col {
		if c.Matches(code) {
			n++
		}
	}
	return n
}

// continuousUnits splits a continuous attribute's active domain into
// nsplit equal-frequency ranges and returns one code-set condition per
// range.
func continuousUnits(in *relation.Relation, attr, nsplit int) []rule.Condition {
	codes := in.DomainCodes(attr)
	if len(codes) == 0 {
		return nil
	}
	type cv struct {
		code int32
		val  float64
	}
	cvs := make([]cv, 0, len(codes))
	for _, c := range codes {
		f, err := parseFloat(in.Dict(attr).Value(c))
		if err != nil {
			continue
		}
		cvs = append(cvs, cv{code: c, val: f})
	}
	sort.Slice(cvs, func(i, j int) bool { return cvs[i].val < cvs[j].val })
	if len(cvs) == 0 {
		return nil
	}
	if nsplit > len(cvs) {
		nsplit = len(cvs)
	}
	out := make([]rule.Condition, 0, nsplit)
	for i := 0; i < nsplit; i++ {
		lo := i * len(cvs) / nsplit
		hi := (i + 1) * len(cvs) / nsplit
		if lo >= hi {
			continue
		}
		codes := make([]int32, 0, hi-lo)
		for _, x := range cvs[lo:hi] {
			codes = append(codes, x.code)
		}
		label := fmt.Sprintf("%s∈[%g,%g]",
			in.Schema().Attr(attr).Name, cvs[lo].val, cvs[hi-1].val)
		out = append(out, rule.NewCondition(attr, codes, label))
	}
	return out
}

// discreteUnits returns one condition per active-domain value, or — when
// the domain exceeds maxDomain — one condition per common-prefix bucket
// (the "reduce the encoding dimension from dom(x_i) to K" device of
// §IV-A).
func discreteUnits(in *relation.Relation, attr, maxDomain int) []rule.Condition {
	codes := in.DomainCodes(attr)
	if len(codes) <= maxDomain {
		out := make([]rule.Condition, 0, len(codes))
		for _, c := range codes {
			out = append(out, rule.Eq(attr, c))
		}
		return out
	}

	dict := in.Dict(attr)
	// Choose the longest prefix length whose bucket count fits maxDomain.
	maxLen := 0
	for _, c := range codes {
		if l := len(dict.Value(c)); l > maxLen {
			maxLen = l
		}
	}
	bestLen := 1
	for l := 1; l <= maxLen; l++ {
		if countPrefixes(dict, codes, l) <= maxDomain {
			bestLen = l
		} else {
			break
		}
	}

	buckets := make(map[string][]int32)
	for _, c := range codes {
		buckets[prefixOf(dict.Value(c), bestLen)] = append(buckets[prefixOf(dict.Value(c), bestLen)], c)
	}
	prefixes := make([]string, 0, len(buckets))
	for p := range buckets {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	out := make([]rule.Condition, 0, len(prefixes))
	name := in.Schema().Attr(attr).Name
	for _, p := range prefixes {
		out = append(out, rule.NewCondition(attr, buckets[p],
			fmt.Sprintf("%s=%s*", name, p)))
	}
	return out
}

func countPrefixes(dict *relation.Dict, codes []int32, l int) int {
	seen := make(map[string]struct{})
	for _, c := range codes {
		seen[prefixOf(dict.Value(c), l)] = struct{}{}
	}
	return len(seen)
}

func prefixOf(s string, l int) string {
	if len(s) <= l {
		return s
	}
	return s[:l]
}

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}
