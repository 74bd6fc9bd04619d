// Condition kernel of the columnar evaluation engine (DESIGN.md
// decision 27): every test of a pattern condition against input rows —
// a refined child's one new condition over its parent's cover, and each
// condition of a whole-relation cover after the first posting list —
// runs through filterRows, which reads each row's code once and looks
// it up in a dense membership mask over the attribute's codes.

package measure

import (
	"erminer/internal/relation"
	"erminer/internal/rule"
)

// filterRows appends to dst the rows of rows whose cell on cond.Attr
// satisfies cond, keeping the order of rows, and returns it. A
// single-code equality compares codes directly; any other condition
// marks its codes in the evaluator's reused mask, scans, and clears
// them again, so the mask costs O(codes) per call beside the O(rows)
// scan.
func (e *Evaluator) filterRows(dst, rows []int32, cond rule.Condition) []int32 {
	col := e.input.Column(cond.Attr)
	if !cond.Negate && len(cond.Codes) == 1 {
		code := cond.Codes[0]
		for _, row := range rows {
			if col[row] == code {
				dst = append(dst, row)
			}
		}
		return dst
	}
	mask := e.setMask(cond.Codes)
	n := uint32(len(mask))
	if cond.Negate {
		for _, row := range rows {
			if c := col[row]; c != relation.Null && (uint32(c) >= n || !mask[c]) {
				dst = append(dst, row)
			}
		}
	} else {
		for _, row := range rows {
			// Null and every code above the condition's largest read
			// as uint32 at or past the mask's end: not members.
			if c := uint32(col[row]); c < n && mask[c] {
				dst = append(dst, row)
			}
		}
	}
	for _, c := range cond.Codes {
		if c >= 0 {
			mask[c] = false
		}
	}
	return dst
}

// setMask marks codes in the evaluator's mask and returns it sized to
// one past the largest code. Sizing by the condition rather than by the
// dictionary reads no dictionary, so a dictionary that grows between
// calls (a PATCH interning new values) needs no invalidation: a column
// code past the mask's end is simply not a member. The buffer only
// reallocates to grow.
func (e *Evaluator) setMask(codes []int32) []bool {
	n := 0
	for _, c := range codes {
		n = max(n, int(c)+1)
	}
	if cap(e.mask) < n {
		e.mask = make([]bool, n)
	}
	mask := e.mask[:n]
	for _, c := range codes {
		if c >= 0 {
			mask[c] = true
		}
	}
	return mask
}
