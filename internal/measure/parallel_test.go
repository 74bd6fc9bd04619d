package measure

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"erminer/internal/relation"
	"erminer/internal/rule"
)

// synthPair builds an n-row input / master pair with a planted
// dependency Y = f(A, B) and a pattern attribute G, large enough to
// give concurrent shards real work.
func synthPair(n int, seed int64) (input, master *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	pool := relation.NewPool()
	in := relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "B", Domain: "b"},
		relation.Attribute{Name: "G"},
		relation.Attribute{Name: "Y", Domain: "y"},
	)
	ms := relation.NewSchema(
		relation.Attribute{Name: "A", Domain: "a"},
		relation.Attribute{Name: "B", Domain: "b"},
		relation.Attribute{Name: "Y", Domain: "y"},
	)
	input = relation.New(in, pool)
	master = relation.New(ms, pool)
	for i := 0; i < n; i++ {
		a, b := rng.Intn(6), rng.Intn(6)
		y := fmt.Sprintf("y%d", (a*3+b*5)%7)
		g := fmt.Sprintf("g%d", rng.Intn(3))
		input.AppendRow([]string{
			fmt.Sprintf("a%d", a), fmt.Sprintf("b%d", b), g, y,
		})
		my := (a*3 + b*5) % 7
		if rng.Intn(17) == 0 {
			my = (my + 1) % 7 // master noise keeps certainty < 1
		}
		master.AppendRow([]string{
			fmt.Sprintf("a%d", a), fmt.Sprintf("b%d", b), fmt.Sprintf("y%d", my),
		})
	}
	return input, master
}

// synthRules enumerates a mixed rule set over synthPair's schema:
// varying LHS lengths (distinct cache keys) and guard patterns.
func synthRules(input *relation.Relation) []*rule.Rule {
	var rules []*rule.Rule
	lhs := [][]rule.AttrPair{
		{{Input: 0, Master: 0}},
		{{Input: 1, Master: 1}},
		{{Input: 0, Master: 0}, {Input: 1, Master: 1}},
	}
	for _, l := range lhs {
		rules = append(rules, rule.New(l, 3, 2, nil))
		for _, g := range input.DomainCodes(2) {
			r := rule.New(l, 3, 2, nil).WithCondition(rule.Eq(2, g))
			rules = append(rules, r)
		}
	}
	return rules
}

// TestKeyBufNoAliasing pins that the projection cache key (keyBuf) and
// the master-index cache key (idxKeyBuf) own separate buffers.
// ruleProjection fills both, and ColumnIndex.projection re-reads its key
// after the build, so an index() call must never rewrite it.
func TestKeyBufNoAliasing(t *testing.T) {
	input, master := fig1()
	ev := NewEvaluator(input, master, nil)
	r := rule.New([]rule.AttrPair{{Input: 1, Master: 2}}, 6, 7, nil)

	ev.ruleProjection(r)
	if len(ev.keyBuf) == 0 || len(ev.idxKeyBuf) == 0 {
		t.Fatal("ruleProjection left a key buffer empty")
	}
	if &ev.keyBuf[0] == &ev.idxKeyBuf[0] {
		t.Fatal("projection and index keys share one buffer backing array")
	}
	want := string(appendGroupKey(nil, r))
	ev.index(rule.New([]rule.AttrPair{{Input: 1, Master: 2}, {Input: 7, Master: 8}}, 6, 7, nil))
	if got := string(ev.keyBuf); got != want {
		t.Fatalf("index() rewrote the projection key: %q, want %q", got, want)
	}

	// Interleaving rules of different LHS lengths must match fresh
	// single-rule evaluators.
	input2, master2 := synthPair(256, 3)
	shared := NewEvaluator(input2, master2, nil)
	rules := synthRules(input2)
	for range [3]struct{}{} {
		for i, r := range rules {
			got := shared.Evaluate(r, nil)
			want := NewEvaluator(input2, master2, nil).Evaluate(r, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rule %d: interleaved evaluation diverged: %+v vs %+v", i, got, want)
			}
		}
	}
}

func TestStatsAdd(t *testing.T) {
	s := Stats{Evaluations: 1, IndexBuilds: 2, TuplesScanned: 3}
	s.Add(Stats{Evaluations: 10, IndexBuilds: 20, TuplesScanned: 30})
	if s != (Stats{Evaluations: 11, IndexBuilds: 22, TuplesScanned: 33}) {
		t.Fatalf("Stats.Add: got %+v", s)
	}
}

// TestShardConcurrency runs many shards of one evaluator concurrently
// over a mixed rule set and checks that (a) every result is identical
// to a fresh serial evaluator's, (b) the merged shard stats equal the
// serial totals exactly, and (c) singleflight built each distinct index
// exactly once across all workers. Run under -race this is the
// correctness gate for the shared cache.
func TestShardConcurrency(t *testing.T) {
	input, master := synthPair(2000, 7)
	rules := synthRules(input)

	serial := NewEvaluator(input, master, nil)
	want := make([]Measures, len(rules))
	for i, r := range rules {
		want[i] = serial.Evaluate(r, nil)
	}

	const workers = 8
	const rounds = 4
	ev := NewEvaluator(input, master, nil)
	shards := make([]*Evaluator, workers)
	for i := range shards {
		shards[i] = ev.Shard()
	}
	var wg sync.WaitGroup
	got := make([][]Measures, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := shards[w]
			out := make([]Measures, 0, rounds*len(rules))
			for round := 0; round < rounds; round++ {
				for _, r := range rules {
					out = append(out, shard.Evaluate(r, nil))
				}
			}
			got[w] = out
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		for i := range got[w] {
			if !reflect.DeepEqual(got[w][i], want[i%len(rules)]) {
				t.Fatalf("shard %d result %d diverged from serial", w, i)
			}
		}
	}

	var merged Stats
	for _, shard := range shards {
		merged.Add(shard.Stats)
	}
	if wantEvals := workers * rounds * len(rules); merged.Evaluations != wantEvals {
		t.Fatalf("merged Evaluations = %d, want %d", merged.Evaluations, wantEvals)
	}
	if wantScanned := workers * rounds * len(rules) * input.NumRows(); merged.TuplesScanned != wantScanned {
		t.Fatalf("merged TuplesScanned = %d, want %d", merged.TuplesScanned, wantScanned)
	}
	// Every distinct index built exactly once across all shards, and no
	// more indexes than the serial run built.
	if merged.IndexBuilds != serial.Stats.IndexBuilds {
		t.Fatalf("merged IndexBuilds = %d, serial built %d", merged.IndexBuilds, serial.Stats.IndexBuilds)
	}
	if ev.Cache().Len() != merged.IndexBuilds {
		t.Fatalf("cache holds %d indexes, shards report %d builds", ev.Cache().Len(), merged.IndexBuilds)
	}
}
