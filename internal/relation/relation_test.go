package relation

import (
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		Attribute{Name: "city"},
		Attribute{Name: "zip", Domain: "zipcode"},
		Attribute{Name: "age", Type: Continuous},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.Index("zip"); got != 1 {
		t.Errorf("Index(zip) = %d, want 1", got)
	}
	if got := s.Index("nope"); got != -1 {
		t.Errorf("Index(nope) = %d, want -1", got)
	}
	if got := s.MustIndex("age"); got != 2 {
		t.Errorf("MustIndex(age) = %d, want 2", got)
	}
	if got := s.Attr(1).DomainName(); got != "zipcode" {
		t.Errorf("DomainName = %q, want zipcode", got)
	}
	if got := s.Attr(0).DomainName(); got != "city" {
		t.Errorf("DomainName = %q, want city (default to name)", got)
	}
	want := []string{"city", "zip", "age"}
	for i, n := range s.Names() {
		if n != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, n, want[i])
		}
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSchema with duplicate names did not panic")
		}
	}()
	NewSchema(Attribute{Name: "a"}, Attribute{Name: "a"})
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex on missing attribute did not panic")
		}
	}()
	testSchema().MustIndex("missing")
}

func TestDictInternAndLookup(t *testing.T) {
	d := NewDict()
	a := d.Code("x")
	b := d.Code("y")
	if a == b {
		t.Fatal("distinct values got equal codes")
	}
	if got := d.Code("x"); got != a {
		t.Errorf("re-interning x gave %d, want %d", got, a)
	}
	if got := d.Value(a); got != "x" {
		t.Errorf("Value(%d) = %q, want x", a, got)
	}
	if got := d.Value(Null); got != "" {
		t.Errorf("Value(Null) = %q, want empty", got)
	}
	if _, ok := d.Lookup("z"); ok {
		t.Error("Lookup(z) reported present")
	}
	if c, ok := d.Lookup("y"); !ok || c != b {
		t.Errorf("Lookup(y) = (%d, %v), want (%d, true)", c, ok, b)
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d, want 2", d.Size())
	}
	vals := d.Values()
	if len(vals) != 2 || vals[a] != "x" || vals[b] != "y" {
		t.Errorf("Values() = %v", vals)
	}
}

// Property: interning any sequence of strings round-trips code -> value.
func TestDictRoundTripProperty(t *testing.T) {
	f := func(vals []string) bool {
		d := NewDict()
		for _, v := range vals {
			c := d.Code(v)
			if d.Value(c) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoolSharesDicts(t *testing.T) {
	p := NewPool()
	a := p.Dict("zip")
	b := p.Dict("zip")
	if a != b {
		t.Fatal("pool returned distinct dicts for the same domain")
	}
	if p.Dict("other") == a {
		t.Fatal("pool shared dict across domains")
	}
}

func buildTestRelation(t *testing.T) *Relation {
	t.Helper()
	r := New(testSchema(), NewPool())
	r.AppendRow([]string{"HZ", "31200", "30"})
	r.AppendRow([]string{"BJ", "10021", "41"})
	r.AppendRow([]string{"HZ", "", "25"})
	return r
}

func TestRelationAppendAndAccess(t *testing.T) {
	r := buildTestRelation(t)
	if r.NumRows() != 3 || r.NumCols() != 3 {
		t.Fatalf("shape = %dx%d, want 3x3", r.NumRows(), r.NumCols())
	}
	if got := r.Value(0, 0); got != "HZ" {
		t.Errorf("Value(0,0) = %q", got)
	}
	if got := r.Code(2, 1); got != Null {
		t.Errorf("empty cell code = %d, want Null", got)
	}
	if r.Code(0, 0) != r.Code(2, 0) {
		t.Error("equal strings got different codes")
	}
	row := r.RowStrings(1)
	if row[0] != "BJ" || row[1] != "10021" || row[2] != "41" {
		t.Errorf("RowStrings(1) = %v", row)
	}
	codes := r.Row(1)
	for c, code := range codes {
		if code != r.Code(1, c) {
			t.Errorf("Row(1)[%d] = %d, want %d", c, code, r.Code(1, c))
		}
	}
}

func TestAppendRowWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRow with wrong arity did not panic")
		}
	}()
	buildTestRelation(t).AppendRow([]string{"only-one"})
}

func TestSetValueAndSetCode(t *testing.T) {
	r := buildTestRelation(t)
	r.SetValue(0, 1, "99999")
	if got := r.Value(0, 1); got != "99999" {
		t.Errorf("after SetValue: %q", got)
	}
	r.SetValue(0, 1, "")
	if got := r.Code(0, 1); got != Null {
		t.Errorf("SetValue empty should store Null, got %d", got)
	}
	r.SetCode(0, 0, r.Code(1, 0))
	if got := r.Value(0, 0); got != "BJ" {
		t.Errorf("after SetCode: %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := buildTestRelation(t)
	c := r.Clone()
	c.SetValue(0, 0, "SZ")
	if r.Value(0, 0) != "HZ" {
		t.Error("mutating clone changed original")
	}
	if c.NumRows() != r.NumRows() {
		t.Errorf("clone rows = %d", c.NumRows())
	}
	// Clones share dictionaries: codes must be comparable.
	if c.Code(1, 0) != r.Code(1, 0) {
		t.Error("clone codes differ from original")
	}
}

func TestDomainCodesAndCounts(t *testing.T) {
	r := buildTestRelation(t)
	codes := r.DomainCodes(0)
	if len(codes) != 2 {
		t.Fatalf("city domain = %d values, want 2", len(codes))
	}
	for i := 1; i < len(codes); i++ {
		if codes[i-1] >= codes[i] {
			t.Error("DomainCodes not sorted")
		}
	}
	if got := r.DomainSize(1); got != 2 {
		t.Errorf("zip DomainSize = %d, want 2 (Null excluded)", got)
	}
	counts := r.ValueCounts(0)
	if counts[r.Code(0, 0)] != 2 {
		t.Errorf("count(HZ) = %d, want 2", counts[r.Code(0, 0)])
	}
}
