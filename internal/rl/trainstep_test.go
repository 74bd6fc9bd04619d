package rl

import (
	"testing"

	"erminer/internal/detrand"
)

// warmAgent builds an agent at RLMiner's bench-scale shape — 26 → 64 →
// 64 → 27, batch 32 — fills its replay past warm-up with binary states
// of a few set dimensions, and takes a few optimisation steps so every
// workspace and Adam moment exists.
func warmAgent(cfg Config) *Agent {
	cfg.Hidden = []int{64, 64}
	env := detrand.New(11)
	a := NewAgent(detrand.New(12), goldenStateDim, goldenActionDim, cfg)
	state := make([]float64, goldenStateDim)
	for i := 0; i < 1000; i++ {
		tr := fixedTransition(env, state)
		tr.Action = env.Intn(goldenActionDim)
		a.Observe(tr)
		state = tr.Next
	}
	for i := 0; i < 3; i++ {
		a.TrainStep()
	}
	return a
}

// BenchmarkTrainStep measures one DQN optimisation step (minibatch
// sample, target and online forward passes, backward pass, Adam) at the
// shape RLMiner trains on the bench-scale covid problem: the rl.train
// layer, ≈ 94% of a traced mine.
func BenchmarkTrainStep(b *testing.B) {
	a := warmAgent(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainStep()
	}
}

// TestTrainStepZeroAlloc is the training step's allocation gate: once
// warm at batch 32, an optimisation step allocates nothing, for
// uniform, double-DQN and prioritized replay alike. scripts/check.sh
// runs it without -race.
func TestTrainStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"double", Config{DoubleDQN: true}},
		{"prioritized", Config{PrioritizedAlpha: 0.6}},
	} {
		a := warmAgent(tc.cfg)
		if allocs := testing.AllocsPerRun(100, func() { a.TrainStep() }); allocs != 0 {
			t.Errorf("%s: TrainStep allocates %.1f/op after warm-up, want 0", tc.name, allocs)
		}
	}
}
