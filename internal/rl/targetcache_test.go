package rl

import (
	"math"
	"testing"

	"erminer/internal/detrand"
	"erminer/internal/nn"
)

// TestTargetRowCacheMatchesForward is the row cache's oracle: after
// every training step, each valid cached row must equal, bit for bit,
// a fresh target-network forward of its slot's next state. The replay
// holds fewer transitions than a target generation samples
// (ReplayCapacity < TargetSync × BatchSize), so slots are overwritten
// while their rows are cached, and the run crosses several target
// syncs, for the uniform, prioritized and double-DQN agents.
func TestTargetRowCacheMatchesForward(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{}},
		{"prioritized", Config{PrioritizedAlpha: 0.6}},
		{"double", Config{DoubleDQN: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ReplayCapacity, cfg.BatchSize, cfg.TargetSync, cfg.Warmup = 48, 8, 10, 16
			cfg.Hidden = []int{16, 16}
			if cfg.ReplayCapacity >= cfg.TargetSync*cfg.BatchSize {
				t.Fatal("the replay must turn over within a target generation")
			}
			env := detrand.New(5)
			a := NewAgent(detrand.New(6), goldenStateDim, goldenActionDim, cfg)
			state := make([]float64, goldenStateDim)
			var hits, overwrites int
			for step := 0; step < 120; step++ {
				tr := fixedTransition(env, state)
				tr.Action = env.Intn(goldenActionDim)
				var slot int
				if a.preplay != nil {
					slot = a.preplay.pos
				} else {
					slot = a.replay.pos
				}
				if slot < len(a.rowValid) && a.rowValid[slot] {
					overwrites++
				}
				a.Observe(tr)
				state = tr.Next

				valid := make([]bool, len(a.rowValid))
				copy(valid, a.rowValid)
				if _, stepped := a.TrainStep(); !stepped {
					continue
				}
				for i, s := range a.slots {
					if valid[s] && !a.batch[i].Done {
						hits++
					}
				}
				checkTargetRows(t, a, step)
			}
			if hits == 0 || overwrites == 0 {
				t.Fatalf("%d cache hits and %d overwritten cached rows: the run did not exercise the cache", hits, overwrites)
			}
		})
	}
}

// checkTargetRows compares every valid cached row of a with one forward
// of all their slots' next states through the target network.
func checkTargetRows(t *testing.T, a *Agent, step int) {
	t.Helper()
	var buf []Transition
	if a.preplay != nil {
		buf = a.preplay.data
	} else {
		buf = a.replay.buf
	}
	var slots []int
	for s, ok := range a.rowValid {
		if ok {
			slots = append(slots, s)
		}
	}
	if len(slots) == 0 {
		return
	}
	x := nn.NewMatrix(len(slots), goldenStateDim)
	for r, s := range slots {
		if buf[s].Done {
			t.Fatalf("step %d: slot %d holds a terminal transition but has a cached row", step, s)
		}
		copy(x.Row(r), buf[s].Next)
	}
	want := a.target.Forward(x)
	for r, s := range slots {
		got := a.targetRow(s)
		for j, v := range want.Row(r) {
			if math.Float64bits(got[j]) != math.Float64bits(v) {
				t.Fatalf("step %d: slot %d's cached row [%d] = %g, target forward %g", step, s, j, got[j], v)
			}
		}
	}
}
