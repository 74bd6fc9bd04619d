package rl

import (
	"bytes"
	"encoding/gob"
	"testing"

	"erminer/internal/detrand"
)

// driveBandit runs n interaction+training steps of the two-arm bandit.
// Everything it does is a pure function of the agent's state, so two
// agents with identical state stay identical under it.
func driveBandit(a *Agent, n int) {
	state := []float64{1}
	mask := []bool{true, true}
	for i := 0; i < n; i++ {
		act := a.SelectAction(state, mask, a.Epsilon())
		r := 0.0
		if act == 1 {
			r = 1
		}
		a.Observe(Transition{State: state, Action: act, Reward: r, Done: true})
		a.TrainStep()
	}
}

// TestAgentStateRoundTripBitIdentical is the core resume guarantee at
// the agent level: save at step k, restore in a "fresh process"
// (LoadAgentState from bytes), continue both — the final serialised
// states must be byte-for-byte equal.
func TestAgentStateRoundTripBitIdentical(t *testing.T) {
	configs := map[string]Config{
		"uniform": {Warmup: 20, BatchSize: 8, TargetSync: 20,
			Hidden: []int{8}, EpsDecaySteps: 200, ReplayCapacity: 64},
		"prioritized": {Warmup: 20, BatchSize: 8, TargetSync: 20,
			Hidden: []int{8}, EpsDecaySteps: 200, ReplayCapacity: 64,
			PrioritizedAlpha: 0.6},
		"double": {Warmup: 20, BatchSize: 8, TargetSync: 20,
			Hidden: []int{8}, EpsDecaySteps: 200, ReplayCapacity: 64,
			DoubleDQN: true},
	}
	for name, cfg := range configs {
		for _, k := range []int{0, 10, 57, 150} {
			a := NewAgent(detrand.New(11), 1, 2, cfg)
			driveBandit(a, k)
			blob, err := a.SaveState()
			if err != nil {
				t.Fatalf("%s k=%d: SaveState: %v", name, k, err)
			}
			b, err := LoadAgentState(blob)
			if err != nil {
				t.Fatalf("%s k=%d: LoadAgentState: %v", name, k, err)
			}

			driveBandit(a, 120)
			driveBandit(b, 120)

			fa, err := a.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			fb, err := b.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fa, fb) {
				t.Errorf("%s k=%d: resumed agent diverged from uninterrupted run", name, k)
			}
		}
	}
}

// TestAgentStateCountersSurvive pins that the ε-schedule and target-sync
// positions are part of the state, not restarted.
func TestAgentStateCountersSurvive(t *testing.T) {
	a := NewAgent(detrand.New(5), 1, 2, Config{Warmup: 10, BatchSize: 4,
		Hidden: []int{4}, EpsDecaySteps: 100, ReplayCapacity: 32})
	driveBandit(a, 40)
	blob, err := a.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadAgentState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if b.steps != a.steps || b.optSteps != a.optSteps {
		t.Errorf("counters lost: got (%d, %d), want (%d, %d)", b.steps, b.optSteps, a.steps, a.optSteps)
	}
	if b.Epsilon() != a.Epsilon() {
		t.Errorf("ε position lost: %g vs %g", b.Epsilon(), a.Epsilon())
	}
}

func TestLoadAgentStateRejectsGarbage(t *testing.T) {
	if _, err := LoadAgentState([]byte("not a gob stream")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadAgentStateRejectsBadBatchSize(t *testing.T) {
	data, err := NewAgent(detrand.New(10), 2, 3, Config{}).SaveState()
	if err != nil {
		t.Fatal(err)
	}
	var sa savedAgent
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sa); err != nil {
		t.Fatal(err)
	}
	sa.Cfg.BatchSize = 0
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sa); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAgentState(buf.Bytes()); err == nil {
		t.Error("agent state with batch size 0 accepted")
	}
}

// TestLoadAgentStateRejectsBadReplayFill: a replay whose write position
// and fill level no ring reaches by Add (a corrupt checkpoint) is an
// error, not a restored agent that panics on its next Observe.
func TestLoadAgentStateRejectsBadReplayFill(t *testing.T) {
	for _, cfg := range []Config{{ReplayCapacity: 16}, {ReplayCapacity: 16, PrioritizedAlpha: 0.6}} {
		a := NewAgent(detrand.New(11), 2, 3, cfg)
		for i := 0; i < 5; i++ {
			a.Observe(Transition{State: []float64{0, 0}, Next: []float64{0, 0}, NextMask: []bool{true, true, true}})
		}
		data, err := a.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		var sa savedAgent
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sa); err != nil {
			t.Fatal(err)
		}
		if sa.Replay != nil {
			sa.Replay.Pos = 9
		} else {
			sa.PReplay.Pos = 9
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(sa); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadAgentState(buf.Bytes()); err == nil {
			t.Errorf("prioritized %v: replay at position 9 holding 5 transitions accepted", cfg.PrioritizedAlpha > 0)
		}
	}
}
