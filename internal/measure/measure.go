// Package measure implements the utility measures of paper §II-B —
// Support (Eq. 1), Certainty (Eq. 2–3), Quality (Eq. 4–5) and the
// combined Utility U(φ) = (log S)² · (C + Q) — together with the
// evaluation machinery both miners share:
//
//   - a master-side index per LHS master-attribute list, mapping the
//     joined X_m key to a histogram of Y_m values (built once and cached,
//     so Certainty is computed per X-key group rather than per tuple);
//   - cover-based subspace search (Alg. 4 lines 9–10): a child rule is
//     evaluated only over the input tuples covered by its parent's
//     pattern;
//   - a parallel evaluation layer: the index cache is a thread-safe,
//     build-once structure (IndexCache) that N evaluator shards borrow
//     (Shard), with bit-identical results to a serial run.
package measure

import (
	"math"

	"erminer/internal/relation"
	"erminer/internal/rule"
)

// Measures aggregates the paper's rule measures for one rule.
type Measures struct {
	// Support is S(φ): the number of input tuples with f_s(φ, t) = 1.
	Support int
	// Certainty is C(φ) ∈ [0, 1]: the mean of f_c over covered tuples.
	Certainty float64
	// Quality is Q(φ) ∈ [-1, 1]: the mean of κ over covered tuples.
	Quality float64
	// Utility is U(φ) = (log S)² · (C + Q).
	Utility float64
	// PatternCover lists the input rows matching t_p (within the parent
	// cover the rule was evaluated on). It is the cover handed to child
	// rules for subspace search.
	PatternCover []int32
}

// Hist is the Y_m-value histogram of one X_m-key group of the master data,
// i.e. the multiset Cand(t, φ) shared by every input tuple with the same
// t[X] values.
type Hist struct {
	Counts map[int32]int
	Total  int
	// Max is max_v count(v); Arg is the corresponding value. Ties break
	// toward the smaller code for determinism.
	Max int
	Arg int32
}

func (h *Hist) add(v int32) {
	h.Counts[v]++
	h.Total++
	c := h.Counts[v]
	if h.Total == 1 {
		// First observation: the argmax is v by definition. Make that
		// explicit rather than relying on c > h.Max with the zero-valued
		// Arg — the implicit form silently depends on Max starting at 0
		// and would corrupt the tie-break if it ever didn't.
		h.Max, h.Arg = c, v
		return
	}
	if c > h.Max || (c == h.Max && v < h.Arg) {
		h.Max = c
		h.Arg = v
	}
}

// Certainty returns f_c for tuples in this group: max count / total count.
func (h *Hist) Certainty() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Max) / float64(h.Total)
}

// masterIndex maps the encoded X_m key to the Y_m histogram of the
// matching master tuples.
type masterIndex map[string]*Hist

// Evaluator evaluates rules over a fixed (input, master, truth) triple.
// It caches master indexes keyed by the master attribute list, which is
// what makes repeated evaluation across thousands of candidate rules
// tractable (DESIGN.md decision 2). Rules are evaluated on the columnar
// engine — posting-list cover intersections plus dense group-id
// projections (posting.go, groups.go; DESIGN.md decision 16) — which
// the differential and fuzz suites pin bit for bit against a
// row-at-a-time oracle kept in the tests (DESIGN.md decision 23).
//
// An Evaluator is not safe for concurrent use, but evaluators sharing
// one IndexCache may run concurrently with each other: use Shard to
// derive one per worker goroutine (DESIGN.md decision 11).
type Evaluator struct {
	input  *relation.Relation
	master *relation.Relation
	// truth[i] is the ground-truth code of input tuple i on the
	// dependent attribute Y. When no labelled data is available the
	// caller passes the observed (possibly dirty) Y column, yielding the
	// paper's approximate Quality measure (§II-B3).
	truth []int32

	// cache holds the built master indexes; it may be shared across
	// evaluator shards and is safe for concurrent use.
	cache *IndexCache
	// columns is the columnar store over the input relation (posting
	// lists, group projections). Like cache it may be shared across
	// shards and is safe for concurrent use; unlike cache it is bound to
	// one input relation (see ShareColumns).
	columns *ColumnIndex
	// keyBuf is the reusable buffer for projection cache keys. It must
	// never be shared with idxKeyBuf: ColumnIndex.projection reads its
	// key again after the build closure runs (torn-build retry), so an
	// index() lookup reached while the key is live would rewrite it under
	// the projection cache (see TestKeyBufNoAliasing).
	keyBuf []byte
	// idxKeyBuf is the separate reusable buffer for index cache keys.
	idxKeyBuf []byte

	// memoRule/memoProj memoise the last rule's group projection on
	// pointer identity, skipping the cache mutex on the common
	// many-Evaluate-calls-per-rule pattern. memoVersion and
	// memoMasterVersion guard against input and master mutation between
	// calls (the projection captures master histograms at build time).
	memoRule          *rule.Rule
	memoProj          *groupProjection
	memoVersion       int64
	memoMasterVersion int64

	// coverFree is the freelist of cover buffers handed back through
	// ReleaseCover; getCover pops from it so steady-state evaluation is
	// allocation-free. Owned by the evaluator's goroutine.
	coverFree [][]int32
	// condScratch, condLists and condOrder are the per-condition scratch
	// of columnar cover intersection, reused across calls.
	condScratch []condBufs
	condLists   [][]int32
	condOrder   []int
	// isectA/isectB are the ping-pong buffers of the intersection chain.
	isectA, isectB []int32

	// Deprecated: has no effect; nothing reads it. It stays only
	// because bench/replay.go still assigns it.
	Parallelism int

	// Stats counts evaluator work for the ablation benchmarks.
	Stats Stats
}

// Stats counts evaluator work.
type Stats struct {
	// Evaluations is the number of Evaluate calls.
	Evaluations int
	// IndexBuilds is the number of master indexes built (cache misses).
	IndexBuilds int
	// TuplesScanned is the total number of logical input tuples an
	// evaluation covers: NumRows for a full-relation evaluation, the
	// parent cover size for a cover-restricted one. It counts logical
	// rows, not rows touched: posting-list intersections read fewer, so
	// the figure depends only on the data shape and the rules evaluated.
	TuplesScanned int
}

// Add accumulates other into s. Worker shards each collect their own
// Stats; merging them through Add at join time reproduces exactly the
// totals a serial run would report.
func (s *Stats) Add(other Stats) {
	s.Evaluations += other.Evaluations
	s.IndexBuilds += other.IndexBuilds
	s.TuplesScanned += other.TuplesScanned
}

// NewEvaluator builds an evaluator with a private index cache. truth may
// be nil, in which case the observed Y column of the input is used per
// dependent attribute at evaluation time (approximate Quality).
func NewEvaluator(input, master *relation.Relation, truth []int32) *Evaluator {
	return NewSharedEvaluator(input, master, truth, NewIndexCache())
}

// NewSharedEvaluator builds an evaluator borrowing an existing index
// cache, so separately-constructed evaluators (mining, reward queries,
// repair) reuse each other's built indexes.
func NewSharedEvaluator(input, master *relation.Relation, truth []int32, cache *IndexCache) *Evaluator {
	return &Evaluator{
		input:   input,
		master:  master,
		truth:   truth,
		cache:   cache,
		columns: NewColumnIndex(input),
	}
}

// Shard returns a lightweight evaluator that borrows e's relations,
// truth column, index cache and columnar store but owns its key
// buffers, scratch, freelist and Stats, so it can run on a different
// goroutine than e and than any other shard. The caller owns the
// cross-shard fan-out. Merge shard Stats back with Stats.Add.
func (e *Evaluator) Shard() *Evaluator {
	return &Evaluator{
		input:   e.input,
		master:  e.master,
		truth:   e.truth,
		cache:   e.cache,
		columns: e.columns,
	}
}

// Cache exposes the evaluator's index cache for sharing with other
// evaluators (see NewSharedEvaluator).
func (e *Evaluator) Cache() *IndexCache { return e.cache }

// Columns exposes the evaluator's columnar store for sharing with other
// evaluators over the same input relation (see ShareColumns).
func (e *Evaluator) Columns() *ColumnIndex { return e.columns }

// ShareColumns rebinds the evaluator to an existing columnar store so
// that separately-constructed evaluators over the same input relation
// (mining, reward queries, repair) reuse each other's posting lists and
// group projections. It panics if ci indexes a different relation.
func (e *Evaluator) ShareColumns(ci *ColumnIndex) {
	if ci.rel != e.input {
		panic("measure: ShareColumns: column index built over a different relation")
	}
	e.columns = ci
	e.memoRule, e.memoProj = nil, nil
}

// Input returns the input relation the evaluator reads.
func (e *Evaluator) Input() *relation.Relation { return e.input }

// Master returns the master relation the evaluator reads.
func (e *Evaluator) Master() *relation.Relation { return e.master }

// index returns the master index for the rule's LHS master attributes and
// dependent master attribute, building and caching it on first use. The
// cache key lives in idxKeyBuf, never keyBuf, so the projection key
// ruleProjection builds cannot corrupt it (and vice versa).
func (e *Evaluator) index(r *rule.Rule) masterIndex {
	e.idxKeyBuf = e.idxKeyBuf[:0]
	for _, p := range r.LHS {
		e.idxKeyBuf = appendCode(e.idxKeyBuf, int32(p.Master))
	}
	e.idxKeyBuf = appendCode(e.idxKeyBuf, int32(r.Ym))
	idx, built := e.cache.get(e.idxKeyBuf, func() masterIndex {
		return buildIndex(e.master, r)
	})
	if built {
		e.Stats.IndexBuilds++
	}
	return idx
}

// buildIndex scans the master relation once, grouping Y_m values by the
// encoded X_m key. The result is deterministic in the master row order
// and immutable once returned.
func buildIndex(m *relation.Relation, r *rule.Rule) masterIndex {
	idx := make(masterIndex)
	var buf []byte
	for row := 0; row < m.NumRows(); row++ {
		y := m.Code(row, r.Ym)
		if y == relation.Null {
			continue
		}
		var ok bool
		buf, ok = appendLHSKey(buf[:0], m, row, r.LHS, true)
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
	return idx
}

func appendCode(b []byte, c int32) []byte {
	return append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
}

// Candidates returns the candidate-fix histogram Cand(t, φ) for input row,
// or ok=false when the tuple does not match t_p or joins no master tuple.
func (e *Evaluator) Candidates(r *rule.Rule, row int) (*Hist, bool) {
	if len(r.LHS) == 0 || !r.MatchesPattern(e.input, row) {
		return nil, false
	}
	return e.CoveredCandidates(r, row)
}

// CoveredCandidates is Candidates for a row already known to match the
// rule's pattern (typically drawn from its PatternCover): it skips the
// per-row pattern re-check, which is what makes cover-driven repair
// (repair.ApplyContext) sub-linear in the relation size.
func (e *Evaluator) CoveredCandidates(r *rule.Rule, row int) (*Hist, bool) {
	if len(r.LHS) == 0 {
		return nil, false
	}
	gp := e.ruleProjection(r)
	gid := gp.rowGroup[row]
	if gid < 0 || gp.hists[gid] == nil {
		return nil, false
	}
	return gp.hists[gid], true
}

// Evaluate computes the rule's measures over the given parent cover
// (nil means the whole input relation). The returned PatternCover is the
// subset of the parent cover matching the rule's full pattern.
//
// A rule with an empty LHS has, by definition, no join with the master
// data and is assigned zero support and utility; its pattern cover is
// still computed so children can be evaluated on the subspace.
//
// The returned cover may come from the evaluator's buffer freelist:
// callers that are done with it can hand it back via ReleaseCover to
// keep steady-state evaluation allocation-free.
func (e *Evaluator) Evaluate(r *rule.Rule, parentCover []int32) Measures {
	e.Stats.Evaluations++

	var cover []int32
	if parentCover == nil {
		cover = e.columnarFullCover(r)
		e.Stats.TuplesScanned += e.input.NumRows()
	} else {
		cover = e.filterCover(r, parentCover)
		e.Stats.TuplesScanned += len(parentCover)
	}

	m := Measures{PatternCover: cover}
	if len(r.LHS) == 0 {
		return m
	}

	gp := e.ruleProjection(r)
	truth := e.truth
	if truth == nil {
		truth = e.input.Column(r.Y)
	}
	var sumC, sumK float64
	for _, row := range cover {
		gid := gp.rowGroup[row]
		if gid < 0 || gp.hists[gid] == nil {
			continue
		}
		m.Support++
		sumC += gp.cert[gid]
		if gp.arg[gid] == truth[row] {
			sumK++
		} else {
			sumK--
		}
	}
	if m.Support > 0 {
		m.Certainty = sumC / float64(m.Support)
		m.Quality = sumK / float64(m.Support)
		m.Utility = Utility(m.Support, m.Certainty, m.Quality)
	}
	return m
}

// PatternCover filters the parent cover (nil = all input rows) down to
// the rows matching the rule's pattern, without evaluating measures. The
// MDP environment uses it to rebuild a node's cover cheaply when the
// rule's measures come from the reward cache R_Σ. Like Evaluate's cover,
// the result may be handed back through ReleaseCover.
func (e *Evaluator) PatternCover(r *rule.Rule, parentCover []int32) []int32 {
	if parentCover == nil {
		return e.columnarFullCover(r)
	}
	return e.filterCover(r, parentCover)
}

// getCover pops a cover buffer of at least the given capacity from the
// freelist, or allocates one. The returned slice is non-nil and empty.
func (e *Evaluator) getCover(capacity int) []int32 {
	if n := len(e.coverFree); n > 0 {
		c := e.coverFree[n-1]
		e.coverFree[n-1] = nil
		e.coverFree = e.coverFree[:n-1]
		if cap(c) >= capacity {
			return c[:0]
		}
		// Too small: drop it and allocate at the requested size.
	}
	return make([]int32, 0, capacity)
}

// maxCoverFree bounds the freelist so pathological release patterns
// cannot pin unbounded memory.
const maxCoverFree = 256

// ReleaseCover returns a cover obtained from Evaluate or PatternCover
// to the evaluator's freelist for reuse. Passing nil is a no-op. The
// caller must not use the slice afterwards, and must call it on the
// same goroutine that owns the evaluator (shards own their freelists).
func (e *Evaluator) ReleaseCover(c []int32) {
	if cap(c) == 0 || len(e.coverFree) >= maxCoverFree {
		return
	}
	e.coverFree = append(e.coverFree, c[:0])
}

// filterCover restricts a non-nil parent cover to the rows matching the
// rule's pattern. The parent cover is caller-ordered (in practice
// ascending), so the engine keeps the row loop here — posting
// intersections apply only to full-relation scans — and the output
// keeps the parent cover's order exactly.
func (e *Evaluator) filterCover(r *rule.Rule, parentCover []int32) []int32 {
	in := e.input
	out := e.getCover(len(parentCover))
	for _, row := range parentCover {
		if r.MatchesPattern(in, int(row)) {
			out = append(out, row)
		}
	}
	return out
}

// columnarFullCover computes the whole-relation pattern cover as a
// k-way intersection of per-condition posting lists, smallest list
// first. The output is ascending row ids — bit-identical to a
// row-by-row MatchesPattern scan of the relation.
func (e *Evaluator) columnarFullCover(r *rule.Rule) []int32 {
	if len(r.Pattern) == 0 {
		all := e.columns.allRows()
		out := e.getCover(len(all))
		return append(out, all...)
	}

	// Grow the per-condition scratch without losing accumulated buffer
	// capacity, then resolve each condition to its ascending row list.
	for len(e.condScratch) < len(r.Pattern) {
		e.condScratch = append(e.condScratch, condBufs{})
	}
	lists := e.condLists[:0]
	for i := range r.Pattern {
		cond := r.Pattern[i]
		rows := condRows(e.columns.postings(cond.Attr), cond, &e.condScratch[i])
		if len(rows) == 0 {
			e.condLists = lists
			return e.getCover(0)
		}
		lists = append(lists, rows)
	}
	e.condLists = lists

	// Intersect smallest-first for the tightest intermediate results.
	// The order is chosen by (length, position) with an insertion sort —
	// deterministic and allocation-free for the short condition lists
	// rules carry.
	order := e.condOrder[:0]
	for i := range lists {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if len(lists[a]) < len(lists[b]) || (len(lists[a]) == len(lists[b]) && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	e.condOrder = order

	acc := lists[order[0]]
	useA := true
	for k := 1; k < len(order) && len(acc) > 0; k++ {
		if useA {
			e.isectA = intersectInto(e.isectA[:0], acc, lists[order[k]])
			acc = e.isectA
		} else {
			e.isectB = intersectInto(e.isectB[:0], acc, lists[order[k]])
			acc = e.isectB
		}
		useA = !useA
	}
	out := e.getCover(len(acc))
	return append(out, acc...)
}

// ruleProjection returns the rule's group projection, memoised on rule
// pointer identity so repeated evaluations of one rule skip the cache
// mutex entirely.
func (e *Evaluator) ruleProjection(r *rule.Rule) *groupProjection {
	if e.memoRule == r && e.memoVersion == e.input.Version() && e.memoMasterVersion == e.master.Version() {
		return e.memoProj
	}
	idx := e.index(r)
	e.keyBuf = appendGroupKey(e.keyBuf[:0], r)
	gp := e.columns.projection(e.keyBuf, func() *groupProjection {
		return buildProjection(e.input, r.LHS, idx)
	})
	e.memoRule, e.memoProj, e.memoVersion = r, gp, e.input.Version()
	e.memoMasterVersion = e.master.Version()
	return gp
}

// Utility computes U = (log S)² · (C + Q) (natural log, paper §II-B4).
func Utility(support int, certainty, quality float64) float64 {
	if support <= 0 {
		return 0
	}
	l := math.Log(float64(support))
	return l * l * (certainty + quality)
}

// MaxUtility returns the utility of a perfect rule covering all n input
// tuples (C = 1, Q = 1). It is the normalisation constant used when the
// RL reward is scaled to roughly [-1, 1] for DQN stability.
func MaxUtility(n int) float64 {
	return Utility(n, 1, 1)
}
