// Package relation implements the in-memory columnar relational substrate
// used throughout the ERMiner reproduction.
//
// All cell values are dictionary-encoded: each attribute belongs to a named
// domain, and every domain owns a Dict that interns string values to dense
// int32 codes. Attributes of the input and master relations that are matched
// by the schema match M share a domain, so their codes are directly
// comparable and rule evaluation reduces to integer hashing.
//
// NULL (a missing value) is represented by the code Null (-1).
package relation

import (
	"fmt"
	"sort"
)

// Null is the dictionary code used for missing values.
const Null int32 = -1

// Type describes how an attribute's values behave for pattern encoding.
type Type int

const (
	// Discrete attributes have an unordered categorical domain.
	Discrete Type = iota
	// Continuous attributes have numerically ordered values; the MDP
	// encoder splits them into ranges rather than enumerating values.
	Continuous
)

func (t Type) String() string {
	switch t {
	case Discrete:
		return "discrete"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Attribute describes one column of a schema.
type Attribute struct {
	// Name is the attribute name, unique within its schema.
	Name string
	// Type is Discrete or Continuous.
	Type Type
	// Domain names the shared dictionary this attribute draws values
	// from. Attributes matched across schemas must share a domain so
	// that equal strings receive equal codes. Empty means "same as Name".
	Domain string
}

// DomainName returns the dictionary key for the attribute.
func (a Attribute) DomainName() string {
	if a.Domain != "" {
		return a.Domain
	}
	return a.Name
}

// Schema is an ordered list of attributes with name lookup.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from the given attributes. Duplicate attribute
// names panic: schemas are static program data and a duplicate is a bug.
func NewSchema(attrs ...Attribute) *Schema {
	s := &Schema{
		attrs: append([]Attribute(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if _, dup := s.index[a.Name]; dup {
			panic(fmt.Sprintf("relation: duplicate attribute %q", a.Name))
		}
		s.index[a.Name] = i
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// MustIndex is Index but panics when the attribute is missing. It is meant
// for static experiment definitions where a miss is a programming error.
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("relation: schema has no attribute %q", name))
	}
	return i
}

// Names returns the attribute names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	return names
}

// Dict interns string values of one domain to dense int32 codes.
type Dict struct {
	vals []string
	idx  map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{idx: make(map[string]int32)}
}

// Code interns v and returns its code.
func (d *Dict) Code(v string) int32 {
	if c, ok := d.idx[v]; ok {
		return c
	}
	c := int32(len(d.vals))
	d.vals = append(d.vals, v)
	d.idx[v] = c
	return c
}

// Lookup returns the code of v without interning; ok is false if v is
// unknown to the dictionary.
func (d *Dict) Lookup(v string) (code int32, ok bool) {
	c, ok := d.idx[v]
	return c, ok
}

// Value returns the string for a code. Null maps to the empty string.
func (d *Dict) Value(c int32) string {
	if c == Null {
		return ""
	}
	return d.vals[c]
}

// Size returns the number of distinct interned values.
func (d *Dict) Size() int { return len(d.vals) }

// Values returns a copy of all interned values in code order.
func (d *Dict) Values() []string { return append([]string(nil), d.vals...) }

// Pool owns the dictionaries of all domains so that relations built from
// the same pool share codes for matched attributes.
type Pool struct {
	dicts map[string]*Dict
}

// NewPool returns an empty dictionary pool.
func NewPool() *Pool {
	return &Pool{dicts: make(map[string]*Dict)}
}

// Dict returns (creating if needed) the dictionary of the named domain.
func (p *Pool) Dict(domain string) *Dict {
	d, ok := p.dicts[domain]
	if !ok {
		d = NewDict()
		p.dicts[domain] = d
	}
	return d
}

// Relation is a dictionary-encoded, column-oriented table.
type Relation struct {
	schema *Schema
	pool   *Pool
	cols   [][]int32
	dicts  []*Dict
	n      int
	// version counts mutations (AppendCodes, SetCode, ApplyDelta) so
	// derived caches such as measure.ColumnIndex can detect staleness
	// cheaply.
	version int64
	// log records what each recent version step changed (bounded to
	// maxChangeLog entries), so derived structures can patch themselves
	// instead of rebuilding; see ChangesSince.
	log []ChangeSet
}

// maxChangeLog bounds the per-relation change log. A derived structure
// whose build version has fallen further behind than the log covers
// falls back to a full rebuild, so the bound trades patchability for
// memory; deltas batch arbitrarily many mutations into one entry.
const maxChangeLog = 64

// New creates an empty relation over schema, drawing dictionaries from pool.
func New(schema *Schema, pool *Pool) *Relation {
	r := &Relation{
		schema: schema,
		pool:   pool,
		cols:   make([][]int32, schema.Len()),
		dicts:  make([]*Dict, schema.Len()),
	}
	for i := 0; i < schema.Len(); i++ {
		r.dicts[i] = pool.Dict(schema.Attr(i).DomainName())
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Pool returns the dictionary pool the relation draws from.
func (r *Relation) Pool() *Pool { return r.pool }

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int { return r.n }

// NumCols returns the number of attributes.
func (r *Relation) NumCols() int { return r.schema.Len() }

// Dict returns the dictionary of column col.
func (r *Relation) Dict(col int) *Dict { return r.dicts[col] }

// AppendRow interns the string values (one per attribute, in schema order)
// and appends them as a new tuple. An empty string is stored as Null.
func (r *Relation) AppendRow(values []string) {
	if len(values) != r.schema.Len() {
		panic(fmt.Sprintf("relation: AppendRow got %d values for %d attributes",
			len(values), r.schema.Len()))
	}
	codes := make([]int32, len(values))
	for i, v := range values {
		if v == "" {
			codes[i] = Null
		} else {
			codes[i] = r.dicts[i].Code(v)
		}
	}
	r.AppendCodes(codes)
}

// AppendCodes appends a tuple given pre-interned codes.
func (r *Relation) AppendCodes(codes []int32) {
	if len(codes) != r.schema.Len() {
		panic(fmt.Sprintf("relation: AppendCodes got %d codes for %d attributes",
			len(codes), r.schema.Len()))
	}
	for i, c := range codes {
		r.cols[i] = append(r.cols[i], c)
	}
	r.n++
	r.version++
	r.logChange(ChangeSet{From: r.version - 1, To: r.version, OldRows: r.n - 1, Appended: 1})
}

// Code returns the dictionary code of cell (row, col).
func (r *Relation) Code(row, col int) int32 { return r.cols[col][row] }

// SetCode overwrites cell (row, col) with a code. Writing the value the
// cell already holds is a no-op: the version counter is not bumped and
// no caches are invalidated.
func (r *Relation) SetCode(row, col int, code int32) {
	if r.cols[col][row] == code {
		return
	}
	r.cols[col][row] = code
	r.version++
	r.logChange(ChangeSet{From: r.version - 1, To: r.version, OldRows: r.n, Cols: []int{col}})
}

// Version returns the relation's mutation counter: it changes whenever
// a tuple is appended or a cell overwritten. Derived structures (posting
// lists, group projections) compare it against the value observed at
// build time to decide whether they are still valid.
func (r *Relation) Version() int64 { return r.version }

// Value returns the string value of cell (row, col); "" for Null.
func (r *Relation) Value(row, col int) string {
	return r.dicts[col].Value(r.cols[col][row])
}

// SetValue interns v and stores it at (row, col). Empty string means Null.
func (r *Relation) SetValue(row, col int, v string) {
	if v == "" {
		r.SetCode(row, col, Null)
		return
	}
	r.SetCode(row, col, r.dicts[col].Code(v))
}

// Column returns the code slice of column col. The slice is shared with the
// relation; callers must not modify it.
func (r *Relation) Column(col int) []int32 { return r.cols[col] }

// Clone returns a deep copy of the relation sharing the same schema, pool
// and dictionaries.
func (r *Relation) Clone() *Relation {
	c := New(r.schema, r.pool)
	c.n = r.n
	for i := range r.cols {
		c.cols[i] = append([]int32(nil), r.cols[i]...)
	}
	return c
}

// Row returns the codes of one tuple as a fresh slice.
func (r *Relation) Row(row int) []int32 {
	out := make([]int32, r.schema.Len())
	for c := range r.cols {
		out[c] = r.cols[c][row]
	}
	return out
}

// RowStrings returns the string values of one tuple.
func (r *Relation) RowStrings(row int) []string {
	out := make([]string, r.schema.Len())
	for c := range r.cols {
		out[c] = r.Value(row, c)
	}
	return out
}

// DomainCodes returns the sorted distinct non-Null codes present in column
// col. This is the active domain dom(A) used for pattern enumeration.
func (r *Relation) DomainCodes(col int) []int32 {
	seen := make(map[int32]struct{})
	for _, c := range r.cols[col] {
		if c != Null {
			seen[c] = struct{}{}
		}
	}
	out := make([]int32, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DomainSize returns the number of distinct non-Null values in column col.
func (r *Relation) DomainSize(col int) int {
	seen := make(map[int32]struct{})
	for _, c := range r.cols[col] {
		if c != Null {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}

// ValueCounts returns a histogram of the non-Null codes in column col.
func (r *Relation) ValueCounts(col int) map[int32]int {
	out := make(map[int32]int)
	for _, c := range r.cols[col] {
		if c != Null {
			out[c]++
		}
	}
	return out
}
