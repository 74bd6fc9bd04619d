package rl

import (
	"erminer/internal/detrand"
	"testing"
)

func TestReplayRingBuffer(t *testing.T) {
	r := NewReplay(3)
	if r.Len() != 0 {
		t.Fatal("new replay not empty")
	}
	for i := 0; i < 5; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", r.Len())
	}
	// The oldest transitions (0, 1) were evicted.
	rng := detrand.New(1)
	batch, slots := make([]Transition, 3), make([]int, 3)
	for i := 0; i < 50; i++ {
		r.Sample(rng, batch, slots)
		for j, tr := range batch {
			if tr.Reward < 2 {
				t.Fatalf("evicted transition sampled: %g", tr.Reward)
			}
			if r.buf[slots[j]].Reward != tr.Reward {
				t.Fatalf("slot %d holds reward %g, sampled %g", slots[j], r.buf[slots[j]].Reward, tr.Reward)
			}
		}
	}
}

func TestEpsilonSchedule(t *testing.T) {
	rng := detrand.New(2)
	a := NewAgent(rng, 2, 3, Config{EpsStart: 1.0, EpsEnd: 0.1, EpsDecaySteps: 100})
	if got := a.Epsilon(); got != 1.0 {
		t.Errorf("initial ε = %g", got)
	}
	for i := 0; i < 50; i++ {
		a.Observe(Transition{State: []float64{0, 0}, Next: []float64{0, 0}, NextMask: []bool{true, true, true}})
	}
	mid := a.Epsilon()
	if mid >= 1.0 || mid <= 0.1 {
		t.Errorf("mid ε = %g, want strictly between", mid)
	}
	for i := 0; i < 100; i++ {
		a.Observe(Transition{State: []float64{0, 0}, Next: []float64{0, 0}, NextMask: []bool{true, true, true}})
	}
	if got := a.Epsilon(); got != 0.1 {
		t.Errorf("final ε = %g, want 0.1", got)
	}
}

func TestSelectActionRespectsMask(t *testing.T) {
	rng := detrand.New(3)
	a := NewAgent(rng, 2, 4, Config{})
	state := []float64{0.5, -0.5}
	mask := []bool{false, true, false, true}
	// Greedy and random selections must both respect the mask.
	for i := 0; i < 200; i++ {
		if got := a.SelectAction(state, mask, 1.0); !mask[got] {
			t.Fatalf("random selection picked masked action %d", got)
		}
		if got := a.SelectAction(state, mask, 0); !mask[got] {
			t.Fatalf("greedy selection picked masked action %d", got)
		}
	}
}

func TestSelectActionNoValidPanics(t *testing.T) {
	rng := detrand.New(4)
	a := NewAgent(rng, 1, 2, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("all-masked selection did not panic")
		}
	}()
	a.SelectAction([]float64{0}, []bool{false, false}, 0)
}

func TestTrainStepWarmup(t *testing.T) {
	rng := detrand.New(5)
	a := NewAgent(rng, 1, 2, Config{Warmup: 50, BatchSize: 8})
	a.Observe(Transition{State: []float64{0}, Next: []float64{0}, NextMask: []bool{true, true}})
	if loss, stepped := a.TrainStep(); stepped || loss != 0 {
		t.Errorf("training before warmup returned (%g, %v), want (0, false)", loss, stepped)
	}
}

func TestNewReplayZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReplay(0) did not panic")
		}
	}()
	NewReplay(0)
}

// twoArmBandit is the simplest possible environment: one state, two
// actions with rewards 0 and 1. The agent must learn Q(a1) > Q(a0).
func TestDQNLearnsBandit(t *testing.T) {
	rng := detrand.New(6)
	a := NewAgent(rng, 1, 2, Config{
		Warmup: 20, BatchSize: 8, TargetSync: 20,
		Hidden: []int{8}, EpsDecaySteps: 200, Gamma: 0.9,
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
	if q[1] < 0.6 || q[1] > 1.4 {
		t.Errorf("Q(a1) = %g, want ≈ 1 (terminal reward)", q[1])
	}
}

// chainMDP: states s0 -> s1 -> goal. Action 0 advances, action 1
// terminates with 0 reward. Reaching the goal from s1 pays 1. The agent
// must propagate value back to s0 through the Bellman backup.
func TestDQNLearnsChain(t *testing.T) {
	rng := detrand.New(7)
	for _, double := range []bool{false, true} {
		a := NewAgent(rng, 2, 2, Config{
			Warmup: 30, BatchSize: 16, TargetSync: 25,
			Hidden: []int{16}, EpsDecaySteps: 400, Gamma: 0.9,
			DoubleDQN: double,
		})
		s0 := []float64{1, 0}
		s1 := []float64{0, 1}
		mask := []bool{true, true}
		for episode := 0; episode < 400; episode++ {
			state := s0
			for state != nil {
				act := a.SelectAction(state, mask, a.Epsilon())
				var tr Transition
				switch {
				case act == 1: // quit
					tr = Transition{State: state, Action: 1, Reward: 0, Done: true}
					a.Observe(tr)
					a.TrainStep()
					state = nil
				case equal(state, s0):
					tr = Transition{State: s0, Action: 0, Reward: 0, Next: s1, NextMask: mask}
					a.Observe(tr)
					a.TrainStep()
					state = s1
				default: // s1 -> goal
					tr = Transition{State: s1, Action: 0, Reward: 1, Done: true}
					a.Observe(tr)
					a.TrainStep()
					state = nil
				}
			}
		}
		q0 := a.QValues(s0)
		q1 := a.QValues(s1)
		if q1[0] <= q1[1] {
			t.Errorf("double=%v: s1 Q = %v, want advance preferred", double, q1)
		}
		if q0[0] <= q0[1] {
			t.Errorf("double=%v: s0 Q = %v, want advance preferred (value propagated)", double, q0)
		}
		// Q(s0, advance) ≈ γ · 1.
		if q0[0] < 0.5 || q0[0] > 1.3 {
			t.Errorf("double=%v: Q(s0, advance) = %g, want ≈ 0.9", double, q0[0])
		}
	}
}

func equal(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQValuesIsCopy(t *testing.T) {
	rng := detrand.New(8)
	a := NewAgent(rng, 1, 2, Config{})
	q := a.QValues([]float64{1})
	q[0] = 999
	q2 := a.QValues([]float64{1})
	if q2[0] == 999 {
		t.Error("QValues returns shared storage")
	}
}

func TestNewAgentFromReusesNetwork(t *testing.T) {
	rng := detrand.New(9)
	a := NewAgent(rng, 2, 3, Config{})
	b := NewAgentFrom(rng, a.Network(), Config{})
	s := []float64{0.2, 0.8}
	qa, qb := a.QValues(s), b.QValues(s)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Errorf("transferred network differs at %d", i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (&Config{}).withDefaults()
	if c.Gamma != 0.95 || c.LR != 1e-3 || c.BatchSize != 32 ||
		c.ReplayCapacity != 10000 || c.TargetSync != 200 ||
		c.EpsStart != 1.0 || c.EpsEnd != 0.05 || len(c.Hidden) != 2 {
		t.Errorf("defaults = %+v", c)
	}
}
