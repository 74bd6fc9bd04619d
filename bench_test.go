// Benchmarks regenerating every table and figure of the paper's
// evaluation section (§V), one benchmark per artifact, plus ablation
// benchmarks for the design decisions listed in DESIGN.md §4.
//
// The per-artifact benchmarks run the same drivers as cmd/experiments at
// the bench scale (10% of the paper's data sizes) and print the rendered
// rows on their first iteration, so `go test -bench=. -benchmem` leaves
// the full reproduction in its output.
package erminer_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"erminer/internal/core"
	"erminer/internal/datagen"
	"erminer/internal/enuminer"
	"erminer/internal/errgen"
	"erminer/internal/experiments"
	"erminer/internal/mdp"
	"erminer/internal/measure"
	"erminer/internal/nn"
	"erminer/internal/rlminer"
	"erminer/internal/rule"
)

var benchPrintOnce sync.Map

// benchExperiment runs one evaluation-section driver per iteration,
// printing its rendered output the first time only.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var out io.Writer = io.Discard
		if _, printed := benchPrintOnce.LoadOrStore(name, true); !printed {
			out = os.Stdout
			fmt.Fprintf(out, "\n=== %s (bench scale) ===\n", name)
		}
		cfg := &experiments.Config{
			Scale:   experiments.ScaleBench,
			Repeats: 1,
			Seed:    1,
			Out:     out,
		}
		if err := cfg.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "tableI") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "tableII") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "tableIII") }
func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, "figure2") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "figure6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "figure7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "figure8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "figure9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "figure12") }

// benchProblem builds a mid-size covid instance for the micro-benchmarks.
func benchProblem(b *testing.B) *core.Problem {
	b.Helper()
	ds, err := datagen.Covid().Build(datagen.DefaultSpec(2500, 1824, 1))
	if err != nil {
		b.Fatal(err)
	}
	errgen.Inject(ds.Input, errgen.Config{Rate: 0.1, Rng: rand.New(rand.NewSource(2))})
	return &core.Problem{
		Input:            ds.Input,
		Master:           ds.Master,
		Match:            ds.Match,
		Y:                ds.Y,
		Ym:               ds.Ym,
		SupportThreshold: ds.SupportThreshold,
		TopK:             20,
	}
}

func benchRule(p *core.Problem) *rule.Rule {
	// (city, confirmed_date) → infection_case: the paper's φ₁ shape.
	rs := p.Input.Schema()
	ms := p.Master.Schema()
	return rule.New([]rule.AttrPair{
		{Input: rs.MustIndex("city"), Master: ms.MustIndex("city")},
		{Input: rs.MustIndex("confirmed_date"), Master: ms.MustIndex("confirmed_date")},
	}, p.Y, p.Ym, nil)
}

// BenchmarkEvaluate measures one full rule evaluation on the columnar
// engine (DESIGN.md decision 16) with a warm master index (decision 2:
// group-based measure evaluation). It is the hot path of both miners
// and the serving layer; with the cover buffer recycled it must report
// 0 allocs/op — CI gates on it via TestEvaluateZeroAlloc and the
// scripts/check.sh cross-check, and scripts/bench.sh records it in
// BENCH_hotpath.json.
func BenchmarkEvaluate(b *testing.B) {
	p := benchProblem(b)
	r := benchRule(p)
	ev := p.NewEvaluator()
	ms := ev.Evaluate(r, nil) // warm index, postings, projection
	ev.ReleaseCover(ms.PatternCover)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := ev.Evaluate(r, nil)
		ev.ReleaseCover(ms.PatternCover)
	}
}

// BenchmarkEvaluateColdIndex measures evaluation including the master
// index build (the cache-miss path).
func BenchmarkEvaluateColdIndex(b *testing.B) {
	p := benchProblem(b)
	r := benchRule(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := p.NewEvaluator()
		ev.Evaluate(r, nil)
	}
}

// BenchmarkCoverIndex measures child evaluation over the parent's
// pattern cover (Alg. 4 lines 9-10) against a full-relation scan
// (DESIGN.md decision 3).
func BenchmarkCoverIndex(b *testing.B) {
	p := benchProblem(b)
	ev := p.NewEvaluator()
	parent := benchRule(p)
	ov := p.Input.Schema().MustIndex("overseas")
	no, ok := p.Input.Dict(ov).Lookup("No")
	if !ok {
		b.Fatal("No not interned")
	}
	withGuard := parent.WithCondition(rule.Eq(ov, no))
	guardCover := ev.Evaluate(rule.New(nil, p.Y, p.Ym, withGuard.Pattern), nil).PatternCover
	b.Run("subspace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.ReleaseCover(ev.Evaluate(withGuard, guardCover).PatternCover)
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.ReleaseCover(ev.Evaluate(withGuard, nil).PatternCover)
		}
	})
}

// BenchmarkRewardCache measures an environment step on a rule whose
// reward is cached (R_Σ, DESIGN.md decision 7) versus recomputed.
func BenchmarkRewardCache(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"cached", false}, {"disabled", true}} {
		b.Run(tc.name, func(b *testing.B) {
			p := benchProblem(b)
			env, err := mdp.NewEnv(p, mdp.Config{DisableRewardCache: tc.disable})
			if err != nil {
				b.Fatal(err)
			}
			env.Step(0) // populate the cache for action 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				env.Step(0)
			}
		})
	}
}

// BenchmarkRewardShaping is a quality ablation (DESIGN.md decision 4):
// it reports the best discovered utility with and without the Alg. 2
// first-expansion shaping bonus.
func BenchmarkRewardShaping(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"shaped", false}, {"unshaped", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				p := benchProblem(b)
				m := rlminer.New(rlminer.Config{
					TrainSteps: 1500,
					Seed:       int64(100 + i),
					Env:        mdp.Config{DisableShaping: tc.disable},
				})
				res, err := m.Mine(p)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rules) > 0 {
					best += res.Rules[0].Measures.Utility
				}
			}
			b.ReportMetric(best/float64(b.N), "topU/op")
		})
	}
}

// BenchmarkGlobalMask is the Alg. 1 global-mask ablation (DESIGN.md
// decision 5): without it the agent wastes steps regenerating rules.
func BenchmarkGlobalMask(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"masked", false}, {"unmasked", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var explored float64
			for i := 0; i < b.N; i++ {
				p := benchProblem(b)
				m := rlminer.New(rlminer.Config{
					TrainSteps: 1500,
					Seed:       int64(200 + i),
					Env:        mdp.Config{DisableGlobalMask: tc.disable},
				})
				res, err := m.Mine(p)
				if err != nil {
					b.Fatal(err)
				}
				explored += float64(res.Explored)
			}
			b.ReportMetric(explored/float64(b.N), "explored/op")
		})
	}
}

// BenchmarkEncodingWidth measures the §IV-A domain compression
// (DESIGN.md decision 6): state width with and without prefix bucketing
// on the large-domain Location dataset.
func BenchmarkEncodingWidth(b *testing.B) {
	ds, err := datagen.Location().Build(datagen.DefaultSpec(2559, 3430, 1))
	if err != nil {
		b.Fatal(err)
	}
	p := &core.Problem{
		Input: ds.Input, Master: ds.Master, Match: ds.Match,
		Y: ds.Y, Ym: ds.Ym, SupportThreshold: 10,
	}
	for _, tc := range []struct {
		name      string
		maxDomain int
	}{{"compressed-32", 32}, {"uncompressed", 1 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			var dim int
			for i := 0; i < b.N; i++ {
				s := core.BuildSpace(p, core.SpaceConfig{MaxDomain: tc.maxDomain, MinValueCount: 1, MaxValueFrac: -1})
				dim = s.Dim()
			}
			b.ReportMetric(float64(dim), "dims")
		})
	}
}

// BenchmarkNSplit sweeps the continuous-range count (§IV-A) on Adult and
// reports the resulting state width.
func BenchmarkNSplit(b *testing.B) {
	ds, err := datagen.Adult().Build(datagen.DefaultSpec(4000, 500, 1))
	if err != nil {
		b.Fatal(err)
	}
	p := &core.Problem{
		Input: ds.Input, Master: ds.Master, Match: ds.Match,
		Y: ds.Y, Ym: ds.Ym, SupportThreshold: ds.SupportThreshold,
	}
	for _, nsplit := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("nsplit-%d", nsplit), func(b *testing.B) {
			var dim int
			for i := 0; i < b.N; i++ {
				s := core.BuildSpace(p, core.SpaceConfig{NSplit: nsplit, MinValueCount: p.SupportThreshold})
				dim = s.Dim()
			}
			b.ReportMetric(float64(dim), "dims")
		})
	}
}

// BenchmarkMLPForward measures the value network's forward pass at the
// dimensions RLMiner actually uses.
func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP(rng, 80, 64, 64, 81)
	in := make([]float64, 80)
	in[3] = 1
	in[40] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(in)
	}
}

// BenchmarkEnvStep measures one MDP environment step (mask + transition
// + reward) with a warm cache.
func BenchmarkEnvStep(b *testing.B) {
	p := benchProblem(b)
	env, err := mdp.NewEnv(p, mdp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if env.Done() {
			env.Reset()
		}
		env.Step(i % env.ActionDim())
	}
}

// minNs times f runs times and returns the fastest wall-clock
// nanoseconds — the serial baseline BenchmarkEnuMinerParallel reports
// its speedup against.
func minNs(runs int, f func()) float64 {
	var best time.Duration
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}

// BenchmarkEnuMinerParallel measures a full EnuMinerH3 mine on the
// level-synchronized parallel frontier against the serial walk,
// reporting the speedup. A sanity check asserts the two walks explored
// identically; the recorded baseline lives in BENCH_parallel.json.
func BenchmarkEnuMinerParallel(b *testing.B) {
	p := benchProblem(b)
	mine := func(workers int) *core.ResultSet {
		res, err := enuminer.NewH3(enuminer.Config{Parallelism: workers}).Mine(p)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	base := mine(1)
	serialNs := minNs(3, func() { mine(1) })
	b.ResetTimer()
	var res *core.ResultSet
	for i := 0; i < b.N; i++ {
		res = mine(0) // 0 = one worker per CPU
	}
	b.StopTimer()
	if res.Explored != base.Explored || len(res.Rules) != len(base.Rules) {
		b.Fatalf("parallel walk diverged: explored %d/%d rules %d/%d",
			res.Explored, base.Explored, len(res.Rules), len(base.Rules))
	}
	b.ReportMetric(serialNs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "speedup")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkUtility measures the plain utility computation.
func BenchmarkUtility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		measure.Utility(1000+i%100, 0.9, 0.5)
	}
}
