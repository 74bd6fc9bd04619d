package erminer_test

import (
	"reflect"
	"strings"
	"testing"

	"erminer"
	"erminer/internal/measure"
)

func TestBuildDatasetAndProblem(t *testing.T) {
	ds, err := erminer.BuildDataset("covid", erminer.DatasetSpec{
		InputSize: 400, MasterSize: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Input().NumRows() != 400 {
		t.Errorf("input rows = %d", ds.Input().NumRows())
	}
	p := ds.Problem(0)
	if ds.Master().NumRows() == 0 || p.Match == nil {
		t.Error("master/match missing")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("problem invalid: %v", err)
	}
	if p.SupportThreshold <= 0 {
		t.Error("default threshold not applied")
	}
	p2 := ds.Problem(33)
	if p2.SupportThreshold != 33 {
		t.Error("explicit threshold ignored")
	}
}

func TestBuildDatasetUnknown(t *testing.T) {
	if _, err := erminer.BuildDataset("bogus", erminer.DatasetSpec{}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestInjectErrorsAndTruth(t *testing.T) {
	ds, err := erminer.BuildDataset("nursery", erminer.DatasetSpec{
		InputSize: 500, MasterSize: 200, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := ds.InjectErrors(erminer.NoiseConfig{Rate: 0.2, Seed: 3})
	if n == 0 {
		t.Fatal("no errors injected")
	}
	// The clean copy and truth are unaffected.
	truth := ds.Truth()
	dirtyY := 0
	for row := 0; row < ds.Input().NumRows(); row++ {
		if ds.Input().Code(row, ds.Y()) != truth[row] {
			dirtyY++
		}
	}
	if dirtyY == 0 {
		t.Error("Y column untouched at 20% noise")
	}
}

// TestEndToEndWorkflow exercises the full public path: build → corrupt →
// mine (all three algorithms) → repair → evaluate → write fixes.
func TestEndToEndWorkflow(t *testing.T) {
	ds, err := erminer.BuildDataset("covid", erminer.DatasetSpec{
		InputSize: 1000, MasterSize: 700, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds.InjectErrors(erminer.NoiseConfig{Rate: 0.08, Seed: 5})
	p := ds.Problem(0)
	p.TopK = 15

	miners := []erminer.Miner{
		erminer.NewEnuMiner(erminer.EnuMinerConfig{}),
		erminer.NewEnuMinerH3(erminer.EnuMinerConfig{}),
		erminer.NewCTANE(erminer.CTANEConfig{}),
		erminer.NewRLMiner(erminer.RLMinerConfig{TrainSteps: 2500, Seed: 6}),
	}
	truth := ds.Truth()
	for _, m := range miners {
		res, err := m.Mine(p)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(res.Rules) == 0 {
			t.Fatalf("%s found no rules", m.Name())
		}
		for _, r := range res.Rules {
			if s := erminer.FormatRule(p, r.Rule); !strings.Contains(s, "infection_case") {
				t.Errorf("%s: rule misses target attribute: %s", m.Name(), s)
			}
		}
		fixes := erminer.Repair(p, res.Rules)
		if fixes.Covered == 0 {
			t.Errorf("%s covered nothing", m.Name())
		}
		prf := erminer.Evaluate(fixes.Pred, truth)
		if prf.F1 <= 0 {
			t.Errorf("%s F1 = %g", m.Name(), prf.F1)
		}
		t.Logf("%-11s rules=%2d covered=%4d F1=%.3f",
			m.Name(), len(res.Rules), fixes.Covered, prf.F1)
	}
}

func TestWriteFixesPublic(t *testing.T) {
	ds, err := erminer.BuildDataset("location", erminer.DatasetSpec{
		InputSize: 600, MasterSize: 800, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := ds.Y()
	ds.InjectErrors(erminer.NoiseConfig{Rate: 0.15, Cols: []int{y}, Seed: 8})
	p := ds.Problem(0)
	p.TopK = 5
	res, err := erminer.NewEnuMiner(erminer.EnuMinerConfig{}).Mine(p)
	if err != nil {
		t.Fatal(err)
	}
	fixes := erminer.Repair(p, res.Rules)
	changed := erminer.WriteFixes(p.Input, y, fixes, false)
	if changed == 0 {
		t.Error("no fixes written")
	}
	// After writing, re-running the repair proposes no further changes.
	fixes2 := erminer.Repair(p, res.Rules)
	if again := erminer.WriteFixes(p.Input, y, fixes2, false); again != 0 {
		t.Errorf("repair not idempotent: %d more changes", again)
	}
}

// TestParallelismPublicSurface drives the parallel-engine knobs through
// the public façade: Problem.Parallelism, Problem.ShareIndexes and the
// Problem.IndexCache field. Mining on several workers must match one
// worker exactly.
func TestParallelismPublicSurface(t *testing.T) {
	ds, err := erminer.BuildDataset("covid", erminer.DatasetSpec{
		InputSize: 300, MasterSize: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds.InjectErrors(erminer.NoiseConfig{Rate: 0.1, Seed: 2})

	mine := func(workers int) *erminer.ResultSet {
		p := ds.Problem(0)
		p.TopK = 10
		p.Parallelism = workers
		p.ShareIndexes()
		if p.IndexCache == nil {
			t.Fatal("ShareIndexes left IndexCache nil")
		}
		res, err := erminer.NewEnuMinerH3(erminer.EnuMinerConfig{}).Mine(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := mine(1)
	parallel := mine(4)
	if serial.Explored != parallel.Explored || len(serial.Rules) != len(parallel.Rules) {
		t.Fatalf("parallel mine diverged: explored %d/%d, rules %d/%d",
			parallel.Explored, serial.Explored, len(parallel.Rules), len(serial.Rules))
	}
	for i := range serial.Rules {
		if serial.Rules[i].Rule.Key() != parallel.Rules[i].Rule.Key() ||
			!reflect.DeepEqual(serial.Rules[i].Measures, parallel.Rules[i].Measures) {
			t.Fatalf("rule %d diverged between serial and parallel mine", i)
		}
	}

	// An explicitly shared cache can span problems over the same data.
	cache := measure.NewIndexCache()
	p := ds.Problem(0)
	p.IndexCache = cache
	if _, err := erminer.NewEnuMinerH3(erminer.EnuMinerConfig{}).Mine(p); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("shared cache not populated by mining")
	}
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
}
