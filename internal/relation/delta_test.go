package relation

import (
	"reflect"
	"testing"
)

// Regression: writing a cell's existing value must not bump the version
// (and thus must not thrash downstream caches).
func TestSetCodeNoOpKeepsVersion(t *testing.T) {
	r := buildTestRelation(t)
	v := r.Version()
	r.SetCode(0, 0, r.Code(0, 0))
	r.SetValue(1, 1, r.Value(1, 1))
	r.SetValue(2, 1, "") // already Null
	if got := r.Version(); got != v {
		t.Fatalf("Version after no-op writes = %d, want %d", got, v)
	}
	// A real write still bumps it.
	r.SetValue(0, 0, "SZ")
	if got := r.Version(); got != v+1 {
		t.Fatalf("Version after real write = %d, want %d", got, v+1)
	}
}

func TestApplyDeltaAtomicAndLogged(t *testing.T) {
	r := buildTestRelation(t)
	v0 := r.Version()
	zip := r.Dict(1).Code("51800")
	cs, err := r.ApplyDelta(Delta{
		Appends: [][]int32{{r.Dict(0).Code("SZ"), zip, r.Dict(2).Code("60")}},
		Updates: []CellUpdate{{Row: 0, Col: 1, Code: zip}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != v0+1 {
		t.Fatalf("Version = %d, want one bump for the whole delta", r.Version())
	}
	if cs.Appended != 1 || cs.OldRows != 3 || !cs.Touches(1) || cs.Touches(0) {
		t.Fatalf("ChangeSet = %+v", cs)
	}
	if r.NumRows() != 4 || r.Value(3, 0) != "SZ" || r.Value(0, 1) != "51800" {
		t.Fatalf("delta not applied: rows=%d", r.NumRows())
	}
	got, ok := r.ChangesSince(v0)
	if !ok || !reflect.DeepEqual(got, cs) {
		t.Fatalf("ChangesSince(%d) = %+v, %v; want %+v", v0, got, ok, cs)
	}
}

func TestApplyDeltaValidatesUpfront(t *testing.T) {
	r := buildTestRelation(t)
	v0 := r.Version()
	bad := []Delta{
		{Appends: [][]int32{{0}}},                                 // wrong arity
		{Appends: [][]int32{{0, 0, int32(r.Dict(2).Size())}}},     // code out of range
		{Updates: []CellUpdate{{Row: 99, Col: 0, Code: 0}}},       // row out of range
		{Updates: []CellUpdate{{Row: 0, Col: 99, Code: 0}}},       // col out of range
		{Updates: []CellUpdate{{Row: 0, Col: 0, Code: Null - 1}}}, // code below Null
	}
	for i, d := range bad {
		if _, err := r.ApplyDelta(d); err == nil {
			t.Errorf("delta %d: want error", i)
		}
	}
	if r.Version() != v0 || r.NumRows() != 3 {
		t.Fatal("failed deltas must leave the relation untouched")
	}
}

func TestApplyDeltaNoOp(t *testing.T) {
	r := buildTestRelation(t)
	v0 := r.Version()
	cs, err := r.ApplyDelta(Delta{Updates: []CellUpdate{{Row: 0, Col: 0, Code: r.Code(0, 0)}}})
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Empty() || r.Version() != v0 {
		t.Fatalf("no-op delta: cs=%+v version=%d want %d", cs, r.Version(), v0)
	}
}

func TestChangesSinceMergesAndExpires(t *testing.T) {
	r := buildTestRelation(t)
	v0 := r.Version()
	r.SetValue(0, 0, "SZ")
	r.AppendRow([]string{"GZ", "44000", "33"})
	r.SetValue(1, 2, "50")
	cs, ok := r.ChangesSince(v0)
	if !ok {
		t.Fatal("ChangesSince should cover three recent mutations")
	}
	if cs.Appended != 1 || cs.OldRows != 3 || !reflect.DeepEqual(cs.Cols, []int{0, 2}) {
		t.Fatalf("merged ChangeSet = %+v", cs)
	}
	// Same-version query is an empty set.
	cs, ok = r.ChangesSince(r.Version())
	if !ok || !cs.Empty() {
		t.Fatalf("ChangesSince(now) = %+v, %v", cs, ok)
	}
	// Future version cannot be covered.
	if _, ok := r.ChangesSince(r.Version() + 1); ok {
		t.Fatal("ChangesSince(future) must report not covered")
	}
	// Overflow the bounded log: old spans expire.
	for i := 0; i < 2*maxChangeLog; i++ {
		r.AppendRow([]string{"HZ", "31200", "30"})
	}
	if _, ok := r.ChangesSince(v0); ok {
		t.Fatal("ChangesSince must report not covered once the log is trimmed")
	}
	// But recent spans survive trimming.
	v := r.Version()
	r.AppendRow([]string{"HZ", "31200", "30"})
	if cs, ok := r.ChangesSince(v); !ok || cs.Appended != 1 {
		t.Fatalf("ChangesSince(recent) = %+v, %v", cs, ok)
	}
}
