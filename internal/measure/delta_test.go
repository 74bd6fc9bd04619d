package measure

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"erminer/internal/relation"
	"erminer/internal/rule"
)

// randomDelta builds a random batch of appends and cell updates over
// rel, drawing codes (including Null) from the relation's dictionaries.
func randomDelta(rng *rand.Rand, rel *relation.Relation, nAppend, nUpdate int) relation.Delta {
	var d relation.Delta
	code := func(col int) int32 {
		if rng.Intn(6) == 0 {
			return relation.Null
		}
		size := rel.Dict(col).Size()
		if size == 0 {
			return relation.Null
		}
		return int32(rng.Intn(size))
	}
	for i := 0; i < nAppend; i++ {
		row := make([]int32, rel.NumCols())
		for c := range row {
			row[c] = code(c)
		}
		d.Appends = append(d.Appends, row)
	}
	for i := 0; i < nUpdate && rel.NumRows() > 0; i++ {
		col := rng.Intn(rel.NumCols())
		d.Updates = append(d.Updates, relation.CellUpdate{
			Row:  rng.Intn(rel.NumRows()),
			Col:  col,
			Code: code(col),
		})
	}
	return d
}

// applyDeltas mutates the pair and reconciles the shared caches the way
// the serving layer does: the input-side ColumnIndex patches itself
// through the relation's change log, the master-side structures are
// patched explicitly.
func applyDeltas(t *testing.T, input, master *relation.Relation, ci *ColumnIndex, cache *IndexCache, din, dm relation.Delta) {
	t.Helper()
	if _, err := input.ApplyDelta(din); err != nil {
		t.Fatalf("input ApplyDelta: %v", err)
	}
	cs, err := master.ApplyDelta(dm)
	if err != nil {
		t.Fatalf("master ApplyDelta: %v", err)
	}
	cache.ApplyDelta(master, cs)
	ci.ApplyMasterDelta(cs)
}

// TestDeltaPatchBitIdentical is the differential suite of ISSUE 9:
// evaluating on caches patched through ApplyDelta must be bit-identical
// — measures, cover contents and order, and the data-shape Stats — to
// evaluating on freshly built caches over the mutated relations, while
// performing strictly fewer index builds (the point of patching).
func TestDeltaPatchBitIdentical(t *testing.T) {
	input, master := synthPair(400, 21)
	cache := NewIndexCache()
	ci := NewColumnIndex(input)
	warm := NewSharedEvaluator(input, master, nil, cache)
	warm.ShareColumns(ci)
	rules := synthRules(input)
	for _, r := range rules {
		warm.ReleaseCover(warm.Evaluate(r, nil).PatternCover)
	}

	// Round 1: appends on both sides plus input updates to the guard
	// column G (not in any group key, so projections for other rules
	// stay patchable) — master appends splice into every built index.
	din := relation.Delta{
		Appends: [][]int32{
			{input.Dict(0).Code("a1"), input.Dict(1).Code("b2"), input.Dict(2).Code("g0"), input.Dict(3).Code("y3")},
			{relation.Null, input.Dict(1).Code("b0"), input.Dict(2).Code("g1"), relation.Null},
		},
		Updates: []relation.CellUpdate{
			{Row: 0, Col: 2, Code: input.Dict(2).Code("g2")},
			{Row: 5, Col: 2, Code: relation.Null},
		},
	}
	dm := relation.Delta{
		Appends: [][]int32{
			{master.Dict(0).Code("a2"), master.Dict(1).Code("b1"), master.Dict(2).Code("y5")},
			{master.Dict(0).Code("a1"), relation.Null, master.Dict(2).Code("y0")},
		},
	}
	applyDeltas(t, input, master, ci, cache, din, dm)
	assertDeltaMatchesFresh(t, input, master, ci, cache, "round 1", true)

	// Round 2: update-only deltas, including master cells, which must
	// drop exactly the touched indexes and projections.
	din = relation.Delta{Updates: []relation.CellUpdate{
		{Row: 1, Col: 0, Code: relation.Null},
		{Row: 2, Col: 3, Code: input.Dict(3).Code("y1")},
	}}
	dm = relation.Delta{Updates: []relation.CellUpdate{
		{Row: 3, Col: 2, Code: master.Dict(2).Code("y6")},
	}}
	applyDeltas(t, input, master, ci, cache, din, dm)
	assertDeltaMatchesFresh(t, input, master, ci, cache, "round 2", false)
}

// assertDeltaMatchesFresh drives identical evaluation sequences over
// the patched shared caches and over brand-new caches, comparing every
// result against the oracle and the two runs' Stats counters.
// wantFewerBuilds additionally pins that the patched run needed
// strictly fewer master-index builds than the fresh one.
func assertDeltaMatchesFresh(t *testing.T, input, master *relation.Relation, ci *ColumnIndex, cache *IndexCache, tag string, wantFewerBuilds bool) {
	t.Helper()
	patched := NewSharedEvaluator(input, master, nil, cache)
	patched.ShareColumns(ci)
	fresh := NewEvaluator(input, master, nil)
	o := newOracle(input, master, nil)
	for i, r := range synthRules(input) {
		assertSameEval(t, patched, o, r, fmt.Sprintf("%s patched rule %d", tag, i))
		assertSameEval(t, fresh, o, r, fmt.Sprintf("%s fresh rule %d", tag, i))
	}
	if patched.Stats.Evaluations != fresh.Stats.Evaluations ||
		patched.Stats.TuplesScanned != fresh.Stats.TuplesScanned {
		t.Errorf("%s: data-shape stats diverged:\npatched %+v\nfresh   %+v", tag, patched.Stats, fresh.Stats)
	}
	if wantFewerBuilds && patched.Stats.IndexBuilds >= fresh.Stats.IndexBuilds {
		t.Errorf("%s: patched run built %d indexes, fresh built %d — patching saved nothing",
			tag, patched.Stats.IndexBuilds, fresh.Stats.IndexBuilds)
	}
}

// BenchmarkApplyDelta compares the two ways of absorbing a data
// mutation into the evaluation caches: patching through the change log
// (ApplyDelta + ColumnIndex.sync keeping untouched posting lists,
// projections and master indexes) versus discarding and rebuilding
// every cache, as the pre-delta engine effectively did. Each iteration
// applies a single-cell update to the guard column and re-evaluates
// the full rule set.
func BenchmarkApplyDelta(b *testing.B) {
	const n = 4000
	evalAll := func(ev *Evaluator, rules []*rule.Rule) {
		for _, r := range rules {
			ev.ReleaseCover(ev.Evaluate(r, nil).PatternCover)
		}
	}
	step := func(b *testing.B, input *relation.Relation, i int, gs []int32) {
		b.Helper()
		row := i % n
		c := gs[i%len(gs)]
		if input.Code(row, 2) == c {
			c = gs[(i+1)%len(gs)]
		}
		d := relation.Delta{Updates: []relation.CellUpdate{{Row: row, Col: 2, Code: c}}}
		if _, err := input.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("patched", func(b *testing.B) {
		input, master := synthPair(n, 31)
		cache := NewIndexCache()
		ci := NewColumnIndex(input)
		ev := NewSharedEvaluator(input, master, nil, cache)
		ev.ShareColumns(ci)
		rules := synthRules(input)
		evalAll(ev, rules)
		gs := input.DomainCodes(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(b, input, i, gs)
			evalAll(ev, rules)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		input, master := synthPair(n, 31)
		rules := synthRules(input)
		gs := input.DomainCodes(2)
		evalAll(NewEvaluator(input, master, nil), rules)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(b, input, i, gs)
			ev := NewEvaluator(input, master, nil)
			evalAll(ev, rules)
		}
	})
}

// FuzzApplyDelta drives random append/update deltas against the oracle:
// after mutating both relations and patching the shared caches, a new
// evaluator over the patched caches must agree bit-for-bit with an
// oracle built over the mutated data. So must the warm-up evaluator,
// re-run last rule first: its projection memo still holds the last
// rule it projected before the deltas and must notice that either
// relation moved.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(20), uint8(3), uint8(4))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(0), uint8(9), uint8(0), uint8(6))
	f.Add(int64(4), uint8(80), uint8(40), uint8(9), uint8(9))
	// Every input update rewrites a cell with its own value, so only the
	// master version moves: the master cell update lets rule 10 join,
	// which a memo checking the input version alone would miss.
	f.Add(int64(-137), uint8(1), uint8(1), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nMaster, nAppend, nUpdate uint8) {
		rng := rand.New(rand.NewSource(seed))
		input, master := fuzzPair(rng, int(nIn), int(nMaster))
		cache := NewIndexCache()
		ci := NewColumnIndex(input)
		warm := NewSharedEvaluator(input, master, nil, cache)
		warm.ShareColumns(ci)
		rules := fuzzRules(rng, input)
		for _, r := range rules {
			warm.ReleaseCover(warm.Evaluate(r, nil).PatternCover)
		}

		din := randomDelta(rng, input, int(nAppend), int(nUpdate))
		dm := randomDelta(rng, master, int(nAppend)/2, int(nUpdate)/2)
		if _, err := input.ApplyDelta(din); err != nil {
			t.Fatalf("input ApplyDelta: %v", err)
		}
		cs, err := master.ApplyDelta(dm)
		if err != nil {
			t.Fatalf("master ApplyDelta: %v", err)
		}
		cache.ApplyDelta(master, cs)
		ci.ApplyMasterDelta(cs)

		patched := NewSharedEvaluator(input, master, nil, cache)
		patched.ShareColumns(ci)
		o := newOracle(input, master, nil)
		for i, r := range rules {
			want := o.Evaluate(r, nil)
			got := patched.Evaluate(r, nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("rule %d (%s): Evaluate(nil) diverged after delta:\noracle  %+v\npatched %+v",
					i, r.Key(), want, got)
			}
			patched.ReleaseCover(got.PatternCover)
		}
		for i := len(rules) - 1; i >= 0; i-- {
			r := rules[i]
			want := o.Evaluate(r, nil)
			got := warm.Evaluate(r, nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("rule %d (%s): warm evaluator diverged after delta:\noracle %+v\nwarm   %+v",
					i, r.Key(), want, got)
			}
			warm.ReleaseCover(got.PatternCover)
		}
	})
}
