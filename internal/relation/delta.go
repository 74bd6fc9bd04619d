package relation

import (
	"fmt"
	"sort"
)

// CellUpdate overwrites one cell with a pre-interned code.
type CellUpdate struct {
	Row  int
	Col  int
	Code int32
}

// Delta is a batch of mutations applied atomically by ApplyDelta:
// whole-row appends followed by individual cell updates. Codes must be
// pre-interned against the relation's dictionaries (Null is allowed).
type Delta struct {
	Appends [][]int32
	Updates []CellUpdate
}

// ChangeSet summarizes what a span of versions changed. It is the unit
// of the relation's change log and the input to incremental maintenance
// of derived structures (posting lists, group projections, master
// indexes): Appended rows occupy ids [OldRows, OldRows+Appended) and
// Cols lists the columns touched by in-place cell updates.
type ChangeSet struct {
	// From and To delimit the half-open version span (From, To] the set
	// describes: a structure built at version From is brought to To by
	// applying it.
	From, To int64
	// OldRows is the row count before the first append in the span.
	OldRows int
	// Appended counts rows appended in the span.
	Appended int
	// Cols holds the sorted distinct columns whose existing cells were
	// overwritten. Appends are not reflected here; they touch every
	// column and are accounted for by Appended.
	Cols []int
}

// Touches reports whether existing cells of column col were overwritten.
// Appended rows are not considered: a structure that splices appends in
// separately only needs to know about in-place updates.
func (c ChangeSet) Touches(col int) bool {
	i := sort.SearchInts(c.Cols, col)
	return i < len(c.Cols) && c.Cols[i] == col
}

// Empty reports whether the set describes no mutation at all.
func (c ChangeSet) Empty() bool { return c.Appended == 0 && len(c.Cols) == 0 }

// logChange appends one entry to the bounded change log.
func (r *Relation) logChange(c ChangeSet) {
	if len(r.log) >= maxChangeLog {
		// Drop the oldest half in one copy so appends stay amortized O(1).
		n := copy(r.log, r.log[len(r.log)-maxChangeLog/2:])
		r.log = r.log[:n]
	}
	r.log = append(r.log, c)
}

// ChangesSince merges the change log over the span (since, Version()].
// ok is false when the log no longer covers the span (too many
// mutations since, or since predates the relation's log); callers must
// then fall back to a full rebuild. since == Version() yields an empty
// set with ok true.
func (r *Relation) ChangesSince(since int64) (ChangeSet, bool) {
	if since == r.version {
		return ChangeSet{From: since, To: since, OldRows: r.n}, true
	}
	if since > r.version {
		return ChangeSet{}, false
	}
	// Find the first entry with From >= since; entries are contiguous in
	// version order, so the span is covered iff that entry starts exactly
	// at since and the last entry ends at the current version.
	i := sort.Search(len(r.log), func(i int) bool { return r.log[i].From >= since })
	if i == len(r.log) || r.log[i].From != since || r.log[len(r.log)-1].To != r.version {
		return ChangeSet{}, false
	}
	out := ChangeSet{From: since, To: r.version, OldRows: r.log[i].OldRows}
	cols := make(map[int]struct{})
	for ; i < len(r.log); i++ {
		out.Appended += r.log[i].Appended
		for _, c := range r.log[i].Cols {
			cols[c] = struct{}{}
		}
	}
	if len(cols) > 0 {
		out.Cols = make([]int, 0, len(cols))
		for c := range cols {
			out.Cols = append(out.Cols, c)
		}
		sort.Ints(out.Cols)
	}
	return out, true
}

// ApplyDelta validates and applies a delta atomically: either every
// append and update is applied under a single version bump, or the
// relation is left untouched and an error returned. Updates that write
// a cell's existing value are skipped; if the whole delta is a no-op
// the version is not bumped and the returned ChangeSet is empty.
func (r *Relation) ApplyDelta(d Delta) (ChangeSet, error) {
	// Validate everything before mutating anything.
	for i, row := range d.Appends {
		if len(row) != r.schema.Len() {
			return ChangeSet{}, fmt.Errorf("relation: delta append %d has %d codes for %d attributes",
				i, len(row), r.schema.Len())
		}
		for col, c := range row {
			if c < Null || int(c) >= r.dicts[col].Size() {
				return ChangeSet{}, fmt.Errorf("relation: delta append %d column %d: code %d out of range",
					i, col, c)
			}
		}
	}
	for i, u := range d.Updates {
		if u.Col < 0 || u.Col >= r.schema.Len() {
			return ChangeSet{}, fmt.Errorf("relation: delta update %d: column %d out of range", i, u.Col)
		}
		if u.Row < 0 || u.Row >= r.n {
			return ChangeSet{}, fmt.Errorf("relation: delta update %d: row %d out of range", i, u.Row)
		}
		if u.Code < Null || int(u.Code) >= r.dicts[u.Col].Size() {
			return ChangeSet{}, fmt.Errorf("relation: delta update %d: code %d out of range", i, u.Code)
		}
	}
	cs := ChangeSet{OldRows: r.n}
	for _, row := range d.Appends {
		for col, c := range row {
			r.cols[col] = append(r.cols[col], c)
		}
		r.n++
		cs.Appended++
	}
	touched := make(map[int]struct{})
	for _, u := range d.Updates {
		if r.cols[u.Col][u.Row] == u.Code {
			continue
		}
		r.cols[u.Col][u.Row] = u.Code
		touched[u.Col] = struct{}{}
	}
	if len(touched) > 0 {
		cs.Cols = make([]int, 0, len(touched))
		for c := range touched {
			cs.Cols = append(cs.Cols, c)
		}
		sort.Ints(cs.Cols)
	}
	if cs.Empty() {
		cs.From, cs.To = r.version, r.version
		return cs, nil
	}
	r.version++
	cs.From, cs.To = r.version-1, r.version
	r.logChange(cs)
	return cs, nil
}
