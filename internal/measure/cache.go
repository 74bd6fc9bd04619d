package measure

import (
	"sync"
	"sync/atomic"

	"erminer/internal/relation"
)

// IndexCache is a thread-safe, build-once cache of master-side indexes,
// keyed by the encoded (LHS master attributes, Y_m) list of a rule. It
// is the shared read-only layer of the parallel evaluation engine:
// N evaluator shards borrow one cache, and per-key singleflight
// semantics guarantee that no two workers ever build the same
// (X_m, Y_m) index twice — concurrent requests for one key block until
// the single builder finishes, while requests for distinct keys proceed
// independently.
//
// A built index is immutable; readers need no further synchronisation
// (sync.Once publication establishes the happens-before edge).
type IndexCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry // guarded by mu
}

type cacheEntry struct {
	once sync.Once
	// built is set after the once body publishes idx, so ApplyDelta can
	// tell a finished index (patchable) from one still being built or
	// never requested (just dropped).
	built atomic.Bool
	idx   masterIndex
}

// NewIndexCache returns an empty cache.
func NewIndexCache() *IndexCache {
	return &IndexCache{entries: make(map[string]*cacheEntry)}
}

// get returns the index stored under key, invoking build at most once
// per key across all callers. built reports whether this call performed
// the build, so the calling shard can account for it in its Stats. The
// key is taken as bytes so the hit path never allocates (the compiler
// elides the string conversion in map lookups); it is copied to a
// string only on insert.
func (c *IndexCache) get(key []byte, build func() masterIndex) (idx masterIndex, built bool) {
	c.mu.Lock()
	e, ok := c.entries[string(key)]
	if !ok {
		e = &cacheEntry{}
		c.entries[string(key)] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.idx = build()
		e.built.Store(true)
		built = true
	})
	return e.idx, built
}

// ApplyDelta reconciles the cache with a change to the master relation
// m, mirroring ColumnIndex.sync on the master side. Entries whose key —
// the encoded (LHS master attributes, Y_m) list laid down by
// Evaluator.index, 4 bytes per code — references an updated column are
// dropped (their histograms counted the old cell values); surviving
// built entries have the appended master rows spliced into their
// histograms, which is identical to a fresh build because rows are
// added in the same ascending order a full scan would visit them.
// Entries still being built (or malformed keys) are dropped
// conservatively. The caller must guarantee no evaluation runs
// concurrently with the master mutation, as everywhere else.
func (c *IndexCache) ApplyDelta(m *relation.Relation, ch relation.ChangeSet) {
	if ch.Empty() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if !e.built.Load() || len(k) < 4 || len(k)%4 != 0 {
			delete(c.entries, k)
			continue
		}
		ym := int(decodeCode(k[len(k)-4:]))
		drop := ch.Touches(ym)
		attrs := make([]int, 0, len(k)/4-1)
		for off := 0; off+4 < len(k); off += 4 {
			a := int(decodeCode(k[off:]))
			attrs = append(attrs, a)
			drop = drop || ch.Touches(a)
		}
		if drop {
			delete(c.entries, k)
			continue
		}
		spliceIndex(e.idx, m, attrs, ym, ch.OldRows, ch.Appended)
	}
}

// spliceIndex adds master rows [oldRows, oldRows+appended) to a built
// master index, skipping rows with a Null Y_m or any Null LHS cell
// exactly as buildIndex does.
func spliceIndex(idx masterIndex, m *relation.Relation, attrs []int, ym, oldRows, appended int) {
	var buf []byte
	for row := oldRows; row < oldRows+appended; row++ {
		y := m.Code(row, ym)
		if y == relation.Null {
			continue
		}
		buf = buf[:0]
		ok := true
		for _, a := range attrs {
			c := m.Code(row, a)
			if c == relation.Null {
				ok = false
				break
			}
			buf = appendCode(buf, c)
		}
		if !ok {
			continue
		}
		h := idx[string(buf)]
		if h == nil {
			h = &Hist{Counts: make(map[int32]int)}
			idx[string(buf)] = h
		}
		h.add(y)
	}
}

// Len returns the number of distinct indexes resident in the cache.
func (c *IndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
