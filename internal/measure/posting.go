// Columnar posting-list layer of the evaluation engine (DESIGN.md
// decision 16). For each input attribute the ColumnIndex materialises,
// lazily and at most once, the posting list of every value code: the
// ascending row ids holding that code. A rule's pattern cover then
// starts from the shortest posting list of its equality conditions
// instead of a MatchesPattern loop over every tuple, and the per-rule
// group projection (groups.go) turns the Evaluate inner loop into two
// array loads.

package measure

import (
	"sync"
	"sync/atomic"

	"erminer/internal/relation"
)

// attrPostings holds the posting lists of one input attribute: rows maps
// each value code to the ascending row ids carrying it. Immutable once
// built.
type attrPostings struct {
	rows map[int32][]int32
}

func buildAttrPostings(rel *relation.Relation, attr int) *attrPostings {
	col := rel.Column(attr)
	p := &attrPostings{rows: make(map[int32][]int32)}
	for row, c := range col {
		if c == relation.Null {
			continue
		}
		p.rows[c] = append(p.rows[c], int32(row))
	}
	return p
}

// postingEntry and groupEntry give each cached structure per-key
// singleflight semantics, mirroring IndexCache: concurrent requests for
// one entry block until the single builder finishes, requests for
// distinct entries proceed independently.
//
// version records the relation mutation counter the entry was created
// at; the builder re-validates it after building and only then marks
// the entry clean. A mutation landing between entry creation and build
// completion therefore can never publish torn data under an old stamp —
// the entry stays unclean, accessors drop it and retry.
type postingEntry struct {
	once    sync.Once
	version int64
	clean   atomic.Bool
	p       *attrPostings
}

type groupEntry struct {
	once    sync.Once
	version int64
	clean   atomic.Bool
	g       *groupProjection
}

// ColumnIndex is the shared columnar store of one input relation:
// per-attribute posting lists, per-rule group projections (groups.go)
// and the identity row list. It is the input-side counterpart of
// IndexCache and is deliberately kept separate from it — IndexCache is
// keyed only by master-side attribute lists and is shared across
// requests with different input relations in the serving layer, so
// caching input-derived structures there would both leak memory per
// request and break the cache-size accounting the shard tests pin
// (DESIGN.md decision 16).
//
// A ColumnIndex is safe for concurrent use. Entries are immutable once
// published. Every access validates the relation's mutation counter;
// when the relation has changed since the entries were built the store
// patches itself through the relation's change log — splicing appended
// rows into posting lists and dropping only the projections whose
// columns were touched — and falls back to dropping everything when the
// log no longer covers the gap (DESIGN.md decision 19). Mutating the
// relation while another goroutine evaluates is not supported (it never
// was — evaluation reads columns without locks).
type ColumnIndex struct {
	rel *relation.Relation

	mu sync.Mutex
	// version is the relation mutation counter the resident entries were
	// built against. guarded by mu
	version int64
	// attrs holds one posting entry per input attribute. guarded by mu
	attrs []*postingEntry
	// groups holds the group projections, keyed by the encoded
	// (LHS pairs, Y_m) list of a rule. guarded by mu
	groups map[string]*groupEntry
	// all caches the identity row list [0, NumRows). guarded by mu
	all []int32
}

// NewColumnIndex returns an empty columnar store over rel.
func NewColumnIndex(rel *relation.Relation) *ColumnIndex {
	return &ColumnIndex{
		rel:     rel,
		version: rel.Version(),
		attrs:   make([]*postingEntry, rel.NumCols()),
		groups:  make(map[string]*groupEntry),
	}
}

// Relation returns the input relation the store indexes.
func (ci *ColumnIndex) Relation() *relation.Relation { return ci.rel }

// Each accessor below first brings the store up to the relation's
// current version via sync — which patches through the change log or
// drops wholesale — then re-checks the counter under its own lock
// before touching the guarded fields. sync is self-locking rather than
// a *Locked helper so the guardedby analysis can verify, function by
// function, that every access to the annotated fields happens under
// the lock. Builds run outside the lock via once.Do; the entry's
// version stamp plus the post-build clean check close the torn-build
// window a bare version check left open.

// sync reconciles the cached structures with the relation's mutation
// counter. When the relation's change log covers the gap since the
// resident version, entries are patched: appended rows are spliced
// into each surviving attribute's posting lists and the identity row
// list, attributes whose existing cells were overwritten are dropped,
// and group projections are dropped only when appends occurred (their
// rowGroup must cover the new rows) or their LHS input attributes were
// touched. When the log has expired, everything is dropped.
func (ci *ColumnIndex) sync() {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	v := ci.rel.Version()
	if v == ci.version {
		return
	}
	ch, ok := ci.rel.ChangesSince(ci.version)
	if !ok {
		ci.version = v
		ci.attrs = make([]*postingEntry, ci.rel.NumCols())
		ci.groups = make(map[string]*groupEntry)
		ci.all = nil
		return
	}
	for attr, e := range ci.attrs {
		if e == nil {
			continue
		}
		if !e.clean.Load() || ch.Touches(attr) {
			ci.attrs[attr] = nil
			continue
		}
		spliceAppends(e.p, ci.rel, attr, ch.OldRows, ch.Appended)
	}
	if ch.Appended > 0 {
		ci.groups = make(map[string]*groupEntry)
		if ci.all != nil {
			if len(ci.all) == ch.OldRows {
				for row := ch.OldRows; row < ch.OldRows+ch.Appended; row++ {
					ci.all = append(ci.all, int32(row))
				}
			} else {
				ci.all = nil
			}
		}
	} else {
		for k, e := range ci.groups {
			if !e.clean.Load() || groupKeyTouched(k, ch, false) {
				delete(ci.groups, k)
			}
		}
	}
	ci.version = v
}

// spliceAppends extends one attribute's posting lists with the rows
// appended since the entry was built. Rows are visited in ascending
// order, so the result is identical to a fresh build over the grown
// column.
func spliceAppends(p *attrPostings, rel *relation.Relation, attr, oldRows, appended int) {
	if appended == 0 {
		return
	}
	col := rel.Column(attr)
	for row := oldRows; row < oldRows+appended; row++ {
		c := col[row]
		if c == relation.Null {
			continue
		}
		p.rows[c] = append(p.rows[c], int32(row))
	}
}

// groupKeyTouched reports whether a group-projection cache key — the
// encoded (Input, Master) attribute pairs plus Y_m laid down by
// appendGroupKey, 4 bytes per code — references a column the change
// set touched. With master false only the Input attribute of each pair
// is consulted (input-side invalidation: rowGroup is the only
// input-derived piece); with master true the Master attributes and Y_m
// are (master-side invalidation: hists, cert and arg capture master
// state at build time). Malformed keys invalidate conservatively.
func groupKeyTouched(key string, ch relation.ChangeSet, master bool) bool {
	if len(key) < 4 || (len(key)-4)%8 != 0 {
		return true
	}
	pairs := (len(key) - 4) / 8
	for i := 0; i < pairs; i++ {
		off := i * 8
		if master {
			off += 4
		}
		if ch.Touches(int(decodeCode(key[off:]))) {
			return true
		}
	}
	if master {
		return ch.Touches(int(decodeCode(key[len(key)-4:])))
	}
	return false
}

// decodeCode reads one little-endian int32 from the head of s,
// inverting appendCode.
func decodeCode(s string) int32 {
	return int32(s[0]) | int32(s[1])<<8 | int32(s[2])<<16 | int32(s[3])<<24
}

// ApplyMasterDelta invalidates the group projections affected by a
// change to the master relation. Projections capture each group's
// master histogram, certainty and argmax fix at build time, so master
// appends invalidate every projection, while cell updates invalidate
// only the projections whose LHS master attributes or Y_m were
// touched. The input-side structures (posting lists, identity row
// list) never read the master and survive untouched.
func (ci *ColumnIndex) ApplyMasterDelta(ch relation.ChangeSet) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if ch.Empty() {
		return
	}
	if ch.Appended > 0 {
		ci.groups = make(map[string]*groupEntry)
		return
	}
	for k, e := range ci.groups {
		if !e.clean.Load() || groupKeyTouched(k, ch, true) {
			delete(ci.groups, k)
		}
	}
}

// postings returns the posting lists of one attribute, building them at
// most once per relation version.
func (ci *ColumnIndex) postings(attr int) *attrPostings {
	for {
		ci.sync()
		ci.mu.Lock()
		if ci.rel.Version() != ci.version {
			ci.mu.Unlock()
			continue
		}
		e := ci.attrs[attr]
		if e == nil {
			e = &postingEntry{version: ci.version}
			ci.attrs[attr] = e
		}
		ci.mu.Unlock()
		e.once.Do(func() {
			e.p = buildAttrPostings(ci.rel, attr)
			if ci.rel.Version() == e.version {
				e.clean.Store(true)
			}
		})
		if e.clean.Load() {
			return e.p
		}
		ci.dropTornPosting(attr, e)
	}
}

// dropTornPosting removes a posting entry whose build raced a
// mutation, so the caller's retry rebuilds against the settled
// relation.
func (ci *ColumnIndex) dropTornPosting(attr int, e *postingEntry) {
	ci.mu.Lock()
	if ci.attrs[attr] == e {
		ci.attrs[attr] = nil
	}
	ci.mu.Unlock()
}

// allRows returns the shared identity row list [0, NumRows). Callers
// must not modify or retain it beyond the current evaluation.
func (ci *ColumnIndex) allRows() []int32 {
	for {
		ci.sync()
		ci.mu.Lock()
		if ci.rel.Version() != ci.version {
			ci.mu.Unlock()
			continue
		}
		if ci.all == nil {
			all := make([]int32, ci.rel.NumRows())
			for i := range all {
				all[i] = int32(i)
			}
			ci.all = all
		}
		all := ci.all
		ci.mu.Unlock()
		return all
	}
}

// projection returns the group projection stored under key, invoking
// build at most once per key and relation version. key is copied on
// insert, so callers may reuse the backing buffer.
func (ci *ColumnIndex) projection(key []byte, build func() *groupProjection) *groupProjection {
	for {
		ci.sync()
		ci.mu.Lock()
		if ci.rel.Version() != ci.version {
			ci.mu.Unlock()
			continue
		}
		e, ok := ci.groups[string(key)]
		if !ok {
			e = &groupEntry{version: ci.version}
			ci.groups[string(key)] = e
		}
		ci.mu.Unlock()
		e.once.Do(func() {
			e.g = build()
			if ci.rel.Version() == e.version {
				e.clean.Store(true)
			}
		})
		if e.clean.Load() {
			return e.g
		}
		ci.dropTornGroup(key, e)
	}
}

// dropTornGroup removes a projection entry whose build raced a
// mutation; the caller retries against the settled relation.
func (ci *ColumnIndex) dropTornGroup(key []byte, e *groupEntry) {
	ci.mu.Lock()
	if ci.groups[string(key)] == e {
		delete(ci.groups, string(key))
	}
	ci.mu.Unlock()
}
