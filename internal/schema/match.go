// Package schema represents the schema match M between the input schema R
// and the master schema R_m (paper §II-C). The paper assumes the match is
// given; this package provides both an explicit representation and a
// convenience auto-matcher based on shared value domains.
package schema

import (
	"fmt"
	"sort"

	"erminer/internal/relation"
)

// Match maps input attribute indices to the master attribute indices they
// are matched with, i.e. M(A) = {A_m}. An input attribute with no entry is
// unmatched (M(A) = ∅) and can only appear in pattern conditions.
type Match struct {
	m map[int][]int
}

// NewMatch returns an empty match.
func NewMatch() *Match {
	return &Match{m: make(map[int][]int)}
}

// Add records that input attribute a matches master attribute am.
// Duplicate additions are ignored.
func (m *Match) Add(a, am int) {
	for _, x := range m.m[a] {
		if x == am {
			return
		}
	}
	m.m[a] = append(m.m[a], am)
	sort.Ints(m.m[a])
}

// Of returns the master attributes matched with input attribute a, in
// ascending order. The returned slice must not be modified.
func (m *Match) Of(a int) []int { return m.m[a] }

// Matched reports whether input attribute a has at least one match.
func (m *Match) Matched(a int) bool { return len(m.m[a]) > 0 }

// InputAttrs returns the matched input attribute indices in ascending order.
func (m *Match) InputAttrs() []int {
	out := make([]int, 0, len(m.m))
	for a := range m.m {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Pairs returns every (input, master) attribute pair in deterministic
// order: by input attribute, then master attribute.
func (m *Match) Pairs() [][2]int {
	var out [][2]int
	for _, a := range m.InputAttrs() {
		for _, am := range m.m[a] {
			out = append(out, [2]int{a, am})
		}
	}
	return out
}

// Size returns the total number of matched attribute pairs |M|.
func (m *Match) Size() int {
	n := 0
	for _, ams := range m.m {
		n += len(ams)
	}
	return n
}

// FromNames builds a match from attribute-name pairs {input: master}.
// Pairs are checked in input-name order, so an error names the same
// unknown attribute on every call.
func FromNames(r, rm *relation.Schema, pairs map[string]string) (*Match, error) {
	names := make([]string, 0, len(pairs))
	for a := range pairs {
		names = append(names, a)
	}
	sort.Strings(names)
	m := NewMatch()
	for _, a := range names {
		am := pairs[a]
		ia := r.Index(a)
		if ia < 0 {
			return nil, fmt.Errorf("schema: input schema has no attribute %q", a)
		}
		iam := rm.Index(am)
		if iam < 0 {
			return nil, fmt.Errorf("schema: master schema has no attribute %q", am)
		}
		m.Add(ia, iam)
	}
	return m, nil
}

// AutoMatch matches attributes that share a dictionary domain name. It is
// the convenience matcher used by the dataset generators, which construct
// both schemas from a common world and tag matched attributes with the
// same Domain.
func AutoMatch(r, rm *relation.Schema) *Match {
	m := NewMatch()
	byDomain := make(map[string][]int)
	for i := 0; i < rm.Len(); i++ {
		d := rm.Attr(i).DomainName()
		byDomain[d] = append(byDomain[d], i)
	}
	for i := 0; i < r.Len(); i++ {
		for _, am := range byDomain[r.Attr(i).DomainName()] {
			m.Add(i, am)
		}
	}
	return m
}
