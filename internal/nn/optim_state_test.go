package nn

import (
	"math/rand"
	"testing"
)

// trainSteps drives net through n Adam steps on a fixed regression
// target, one output a step in turn, so moments accumulate
// deterministically.
func trainSteps(net *MLP, opt *Adam, n int) {
	x := FromRow([]float64{0.3, -0.7})
	outs := net.Sizes()[len(net.Sizes())-1]
	action, q := []int{0}, []float64{0}
	for i := 0; i < n; i++ {
		action[0] = i % outs
		net.ForwardAt(x, action, q)
		net.Backward(action, []float64{q[0] - 1})
		opt.Step(net.Params())
	}
}

func paramsEqual(t *testing.T, a, b *MLP) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j, v := range ap[i].Value.Data {
			if bp[i].Value.Data[j] != v {
				t.Fatalf("param %d entry %d diverged: %g vs %g", i, j, v, bp[i].Value.Data[j])
			}
		}
	}
}

// TestAdamStateRoundTrip checks the checkpoint/resume contract: train k
// steps, export the optimiser state, restore into a fresh Adam over a
// cloned network, continue both — every subsequent parameter update must
// be bit-identical.
func TestAdamStateRoundTrip(t *testing.T) {
	for _, k := range []int{0, 1, 17} {
		net := NewMLP(rand.New(rand.NewSource(1)), 2, 8, 3)
		opt := NewAdam(1e-2)
		trainSteps(net, opt, k)

		resumed := net.Clone()
		ropt := NewAdam(1e-2)
		if err := ropt.SetState(resumed.Params(), opt.State(net.Params())); err != nil {
			t.Fatalf("k=%d: SetState: %v", k, err)
		}

		trainSteps(net, opt, 25)
		trainSteps(resumed, ropt, 25)
		paramsEqual(t, net, resumed)
	}
}

// TestAdamStateFreshRestartDiverges pins why the state matters: resuming
// with a zeroed optimiser does NOT reproduce the uninterrupted run.
func TestAdamStateFreshRestartDiverges(t *testing.T) {
	net := NewMLP(rand.New(rand.NewSource(2)), 2, 8, 3)
	opt := NewAdam(1e-2)
	trainSteps(net, opt, 10)

	cold := net.Clone()
	coldOpt := NewAdam(1e-2)

	trainSteps(net, opt, 10)
	trainSteps(cold, coldOpt, 10)

	same := true
	ap, bp := net.Params(), cold.Params()
	for i := range ap {
		for j := range ap[i].Value.Data {
			if ap[i].Value.Data[j] != bp[i].Value.Data[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("cold optimiser restart reproduced the warm run; the state export would be pointless")
	}
}

func TestAdamSetStateRejectsMismatch(t *testing.T) {
	net := NewMLP(rand.New(rand.NewSource(3)), 2, 4, 2)
	opt := NewAdam(1e-3)
	st := opt.State(net.Params())
	if err := NewAdam(1e-3).SetState(net.Params()[:1], st); err == nil {
		t.Error("mismatched param count accepted")
	}
	trainSteps(net, opt, 1)
	st = opt.State(net.Params())
	st.M[0] = st.M[0][:1]
	if err := NewAdam(1e-3).SetState(net.Params(), st); err == nil {
		t.Error("mismatched moment length accepted")
	}
	st = opt.State(net.Params())
	st.T = -1
	if err := NewAdam(1e-3).SetState(net.Params(), st); err == nil {
		t.Error("negative step count accepted")
	}
}

func TestHuberLossMatchesGrad(t *testing.T) {
	// The loss must be continuous, match ½e² inside the clip region, and
	// its numerical derivative must agree with HuberGrad everywhere.
	for _, e := range []float64{-3, -1.5, -1, -0.5, 0, 0.25, 1, 2.5} {
		const h = 1e-6
		num := (HuberLoss(e+h) - HuberLoss(e-h)) / (2 * h)
		if g := HuberGrad(e); num-g > 1e-4 || g-num > 1e-4 {
			t.Errorf("dHuberLoss(%g) = %g, HuberGrad = %g", e, num, g)
		}
	}
	if HuberLoss(0.5) != 0.125 {
		t.Errorf("HuberLoss(0.5) = %g", HuberLoss(0.5))
	}
	if HuberLoss(3) != 2.5 || HuberLoss(-3) != 2.5 {
		t.Errorf("linear region wrong: %g %g", HuberLoss(3), HuberLoss(-3))
	}
}
