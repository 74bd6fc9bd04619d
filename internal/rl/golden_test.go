package rl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"erminer/internal/detrand"
)

// Shape of RLMiner's value network on the bench-scale covid problem:
// 26 refinement dimensions, one action per dimension plus stop.
const (
	goldenStateDim  = 26
	goldenActionDim = goldenStateDim + 1
)

// fixedTransition draws a synthetic RLMiner-like transition: binary
// states with up to three set dimensions (the all-zero root state
// included), a random valid-action mask whose stop action is always
// allowed, a reward in [-1, 1) and episode ends one time in ten.
func fixedTransition(env *detrand.RNG, state []float64) Transition {
	next := make([]float64, goldenStateDim)
	for k := env.Intn(4); k > 0; k-- {
		next[env.Intn(goldenStateDim)] = 1
	}
	mask := make([]bool, goldenActionDim)
	for j := range mask {
		mask[j] = env.Intn(2) == 0
	}
	mask[goldenActionDim-1] = true
	return Transition{
		State:    state,
		Reward:   env.Float64()*2 - 1,
		Next:     next,
		NextMask: mask,
		Done:     env.Intn(10) == 0,
	}
}

// trainFixed runs steps observe+train iterations of an agent with cfg at
// RLMiner's hidden widths on a fixed synthetic transition stream and
// returns the agent and the bits of every loss it reported.
func trainFixed(t *testing.T, cfg Config, steps int) (*Agent, []uint64) {
	t.Helper()
	cfg.Hidden = []int{64, 64}
	env := detrand.New(42)
	a := NewAgent(detrand.New(7), goldenStateDim, goldenActionDim, cfg)
	state := make([]float64, goldenStateDim)
	mask := make([]bool, goldenActionDim)
	for j := range mask {
		mask[j] = true
	}
	var losses []uint64
	for i := 0; i < steps; i++ {
		tr := fixedTransition(env, state)
		tr.Action = a.SelectAction(state, mask, a.Epsilon())
		a.Observe(tr)
		if loss, stepped := a.TrainStep(); stepped {
			losses = append(losses, math.Float64bits(loss))
		}
		state, mask = tr.Next, tr.NextMask
		if tr.Done {
			state, mask = make([]float64, goldenStateDim), tr.NextMask
		}
	}
	return a, losses
}

// TestTrainingGolden pins every bit of DQN training: the SHA-256 of the
// agent's complete saved state (both networks, Adam moments, replay,
// counters, RNG) and of every reported loss after a fixed-seed run, for
// the default agent and the two variants cmd/experiments' ablation
// reaches. The constants are those of the naive triple-loop product; a
// kernel that reassociates a sum, fuses a multiply-add or seeds an
// accumulator differently changes them (DESIGN.md decision 22).
func TestTrainingGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets the compiler fuse x*y + z into one fused
		// multiply-add, which rounds once instead of twice; gc does so on
		// arm64, ppc64le, s390x and riscv64, and on amd64 only for an
		// explicit math.FMA. The recorded bits hold on amd64 alone.
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", Config{}, "1e9e42b1051efaa572e5661cc6aad026d6df02d35fa109b057a06e34601c07fd"},
		{"double", Config{DoubleDQN: true}, "b1fb39c8c6c10e2ddb7d7c09569aff35c523ed8bfa304349dc81547155150e31"},
		{"prioritized", Config{PrioritizedAlpha: 0.6}, "1d4738cee44e69f824778778cbc20d78f60b006992f003cfdc5f58317fadc639"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, losses := trainFixed(t, tc.cfg, 300)
			if len(losses) != 201 {
				t.Fatalf("%d optimisation steps, want 201 (one target sync)", len(losses))
			}
			data, err := a.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(data)
			for _, l := range losses {
				h.Write(binary.LittleEndian.AppendUint64(nil, l))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("training state hash = %s, want %s", got, tc.want)
			}
		})
	}
}
