// Group-id projection of the columnar evaluation engine (DESIGN.md
// decision 16): one pass over the input relation assigns every row a
// dense int32 group id per rule LHS, so evaluation reads two arrays per
// row instead of building a string key and probing the master index.

package measure

import (
	"erminer/internal/relation"
	"erminer/internal/rule"
)

// groupProjection is the dense group-id view of one rule's LHS over the
// input relation. rowGroup assigns every input row a group id (-1 when
// any LHS cell is Null; such rows join no master tuple), and the
// group-indexed arrays carry the master histogram of the group's X_m
// key together with its precomputed certainty and argmax fix, so the
// Evaluate inner loop reads gp.rowGroup[row] and three parallel array
// slots instead of hashing a string key. Immutable once built.
type groupProjection struct {
	rowGroup []int32
	// hists[g] is the master histogram of group g, nil when the group's
	// X_m key is absent from the master index.
	hists []*Hist
	cert  []float64
	arg   []int32
}

// buildProjection scans the input once, interning each row's encoded
// LHS key to a dense group id in first-appearance order (the order is
// internal: evaluation results depend only on per-row group contents,
// never on id assignment order).
func buildProjection(in *relation.Relation, lhs []rule.AttrPair, idx masterIndex) *groupProjection {
	n := in.NumRows()
	gp := &groupProjection{rowGroup: make([]int32, n)}
	gids := make(map[string]int32)
	var buf []byte
	for row := 0; row < n; row++ {
		var ok bool
		buf, ok = appendLHSKey(buf[:0], in, row, lhs, false)
		if !ok {
			gp.rowGroup[row] = -1
			continue
		}
		gid, seen := gids[string(buf)]
		if !seen {
			gid = int32(len(gp.hists))
			gids[string(buf)] = gid
			h := idx[string(buf)]
			gp.hists = append(gp.hists, h)
			if h != nil {
				gp.cert = append(gp.cert, h.Certainty())
				gp.arg = append(gp.arg, h.Arg)
			} else {
				gp.cert = append(gp.cert, 0)
				gp.arg = append(gp.arg, relation.Null)
			}
		}
		gp.rowGroup[row] = gid
	}
	return gp
}

// appendLHSKey appends the encoded LHS key of one row — the input-side
// attributes of each pair when master is false, the master-side ones
// when true — returning ok=false when any cell is Null. It is the
// single key builder shared by the master index and the group
// projection (and by the test oracle's input key), so they can never
// drift apart.
func appendLHSKey(buf []byte, rel *relation.Relation, row int, lhs []rule.AttrPair, master bool) ([]byte, bool) {
	for _, p := range lhs {
		a := p.Input
		if master {
			a = p.Master
		}
		c := rel.Code(row, a)
		if c == relation.Null {
			return buf, false
		}
		buf = appendCode(buf, c)
	}
	return buf, true
}

// appendGroupKey appends the projection cache key of a rule: the
// encoded (Input, Master) attribute pairs plus Y_m. Two rules with the
// same LHS and dependent master attribute share one projection
// regardless of their patterns.
func appendGroupKey(buf []byte, r *rule.Rule) []byte {
	for _, p := range r.LHS {
		buf = appendCode(buf, int32(p.Input))
		buf = appendCode(buf, int32(p.Master))
	}
	return appendCode(buf, int32(r.Ym))
}
