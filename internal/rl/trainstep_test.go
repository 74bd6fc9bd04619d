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
// sample, target-row lookups, the online one-output forward and
// backward passes, Adam) at the shape RLMiner trains on the bench-scale
// covid problem: the rl.train layer, most of a traced mine. The replay
// does not change between iterations, so after the first few steps
// every target row is cached; in a mine about a fifth of the sampled
// rows are new.
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
// uniform, double-DQN and prioritized replay alike, and neither does an
// exploring action selection (ε = 1). scripts/check.sh runs it without
// -race.
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
	a := warmAgent(Config{})
	state, mask := make([]float64, goldenStateDim), make([]bool, goldenActionDim)
	for j := range mask {
		mask[j] = j%3 != 0
	}
	if allocs := testing.AllocsPerRun(100, func() { a.SelectAction(state, mask, 1) }); allocs != 0 {
		t.Errorf("SelectAction(ε = 1) allocates %.1f/op, want 0", allocs)
	}
}

// TestSelectActionZeroAlloc is the greedy action selection's allocation
// gate: at ε = 0 on a warm bench-shape agent, SelectAction runs the
// online network's forward pass on reused workspaces and allocates
// nothing. Every greedy training step and every inference step takes
// this path. scripts/check.sh runs it without -race.
func TestSelectActionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	a := warmAgent(Config{})
	state, mask := make([]float64, goldenStateDim), make([]bool, goldenActionDim)
	for j := range mask {
		state[j%goldenStateDim] = float64(j % 2)
		mask[j] = j%3 != 0
	}
	a.SelectAction(state, mask, 0)
	if allocs := testing.AllocsPerRun(100, func() { a.SelectAction(state, mask, 0) }); allocs != 0 {
		t.Errorf("SelectAction(ε = 0) allocates %.1f/op, want 0", allocs)
	}
}
