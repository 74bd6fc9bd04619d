package rule

import "sort"

// PatternDominates reports whether pattern p1 dominates p2 (Definition 2):
// the attributes constrained by p1 are a subset of those constrained by
// p2, and on the shared attributes the conditions agree.
func PatternDominates(p1, p2 []Condition) bool {
	if len(p1) > len(p2) {
		return false
	}
	// Both slices are sorted by attribute (rules normalise on build).
	j := 0
	for _, c1 := range p1 {
		found := false
		for ; j < len(p2); j++ {
			if p2[j].Attr == c1.Attr {
				if !p2[j].SameCodes(c1) {
					return false
				}
				found = true
				j++
				break
			}
			if p2[j].Attr > c1.Attr {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// lhsSubset reports whether l1 ⊆ l2 as sets of attribute pairs. Both are
// sorted by (Input, Master).
func lhsSubset(l1, l2 []AttrPair) bool {
	if len(l1) > len(l2) {
		return false
	}
	j := 0
	for _, p := range l1 {
		found := false
		for ; j < len(l2); j++ {
			if l2[j] == p {
				found = true
				j++
				break
			}
			if l2[j].Input > p.Input ||
				(l2[j].Input == p.Input && l2[j].Master > p.Master) {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Dominates reports whether φ1 dominates φ2 (Definition 3): they share the
// dependent pair, X1 ⊆ X2, X_m1 ⊆ X_m2 and t_p1 dominates t_p2, with at
// least one of the containments strict (a rule does not dominate itself).
func Dominates(r1, r2 *Rule) bool {
	if r1.Y != r2.Y || r1.Ym != r2.Ym {
		return false
	}
	if !lhsSubset(r1.LHS, r2.LHS) || !PatternDominates(r1.Pattern, r2.Pattern) {
		return false
	}
	return len(r1.LHS) < len(r2.LHS) || len(r1.Pattern) < len(r2.Pattern)
}

// Scored pairs a rule with its utility for top-K selection.
type Scored struct {
	Rule    *Rule
	Utility float64
	// Key is Rule.Key(), built once per candidate; TopKNonRedundant
	// builds it when it is empty.
	Key string
}

// TopKNonRedundant selects up to k rules with the highest utility such that
// no selected rule dominates another (Definition 4 + Problem 1). Rules are
// considered in descending utility; a candidate is skipped if it dominates
// or is dominated by an already-selected rule. Ties break on the canonical
// key to keep the selection deterministic. The selected entries carry
// their keys.
func TopKNonRedundant(cands []Scored, k int) []Scored {
	sorted := append([]Scored(nil), cands...)
	for i := range sorted {
		if sorted[i].Key == "" {
			sorted[i].Key = sorted[i].Rule.Key()
		}
	}
	sortScored(sorted)
	var out []Scored
	for _, c := range sorted {
		if len(out) >= k {
			break
		}
		ok := true
		for _, chosen := range out {
			if Dominates(c.Rule, chosen.Rule) || Dominates(chosen.Rule, c.Rule) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

func sortScored(s []Scored) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Utility != s[j].Utility {
			return s[i].Utility > s[j].Utility
		}
		return s[i].Key < s[j].Key
	})
}
