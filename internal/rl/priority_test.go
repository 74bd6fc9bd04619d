package rl

import (
	"erminer/internal/detrand"
	"testing"
)

func TestNewPrioritizedReplayZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPrioritizedReplay(0, α) did not panic")
		}
	}()
	NewPrioritizedReplay(0, 0.6)
}

func TestPrioritizedReplayAddAndLen(t *testing.T) {
	p := NewPrioritizedReplay(4, 0.6)
	if p.Len() != 0 {
		t.Fatal("new replay not empty")
	}
	for i := 0; i < 6; i++ {
		p.Add(Transition{Reward: float64(i)})
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", p.Len())
	}
}

func TestPrioritizedReplaySamplesHighPriority(t *testing.T) {
	p := NewPrioritizedReplay(8, 1.0)
	for i := 0; i < 8; i++ {
		p.Add(Transition{Reward: float64(i)})
	}
	// Give transition 3 an enormous error, everything else near zero.
	idxs := make([]int, 8)
	errs := make([]float64, 8)
	for i := range idxs {
		idxs[i] = i
		errs[i] = 0.001
	}
	errs[3] = 100
	p.Update(idxs, errs)

	rng := detrand.New(1)
	hits := 0
	const draws = 2000
	batch, idxs := make([]Transition, 1), make([]int, 1)
	for i := 0; i < draws; i++ {
		p.Sample(rng, batch, idxs)
		if batch[0].Reward == 3 {
			hits++
		}
	}
	if float64(hits)/draws < 0.9 {
		t.Errorf("high-priority transition sampled %d/%d times", hits, draws)
	}
}

func TestPrioritizedReplayUniformAtAlphaZero(t *testing.T) {
	p := NewPrioritizedReplay(8, 0)
	for i := 0; i < 8; i++ {
		p.Add(Transition{Reward: float64(i)})
	}
	idxs := []int{0}
	p.Update(idxs, []float64{1e9}) // α = 0 flattens any priority to 1
	rng := detrand.New(2)
	counts := make(map[float64]int)
	batch := make([]Transition, 1)
	for i := 0; i < 4000; i++ {
		p.Sample(rng, batch, idxs)
		counts[batch[0].Reward]++
	}
	for r, c := range counts {
		if c < 300 || c > 700 {
			t.Errorf("α=0 sampling skewed: reward %g drawn %d/4000", r, c)
		}
	}
}

func TestPrioritizedReplayIndicesValid(t *testing.T) {
	p := NewPrioritizedReplay(5, 0.6) // rounds up to 8
	for i := 0; i < 3; i++ {          // partially filled
		p.Add(Transition{Reward: float64(i)})
	}
	rng := detrand.New(3)
	batch, idxs := make([]Transition, 4), make([]int, 4)
	for i := 0; i < 100; i++ {
		p.Sample(rng, batch, idxs)
		for j, idx := range idxs {
			if idx < 0 || idx >= p.Len() {
				t.Fatalf("index %d out of range", idx)
			}
			if batch[j].Reward != p.data[idx].Reward {
				t.Fatal("index does not correspond to sampled transition")
			}
		}
	}
}

// TestDQNWithPrioritizedReplayLearns: the bandit test again, through the
// prioritized path.
func TestDQNWithPrioritizedReplayLearns(t *testing.T) {
	rng := detrand.New(4)
	a := NewAgent(rng, 1, 2, Config{
		Warmup: 20, BatchSize: 8, TargetSync: 20,
		Hidden: []int{8}, EpsDecaySteps: 200, Gamma: 0.9,
		PrioritizedAlpha: 0.6,
	})
	state := []float64{1}
	mask := []bool{true, true}
	for i := 0; i < 600; i++ {
		act := a.SelectAction(state, mask, a.Epsilon())
		r := 0.0
		if act == 1 {
			r = 1
		}
		a.Observe(Transition{State: state, Action: act, Reward: r, Done: true})
		a.TrainStep()
	}
	q := a.QValues(state)
	if q[1] <= q[0] {
		t.Errorf("Q = %v, want action 1 preferred", q)
	}
}
