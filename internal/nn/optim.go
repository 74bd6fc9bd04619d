package nn

import (
	"fmt"
	"math"
)

// Adam is the Adam optimizer (Kingma & Ba 2015) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the usual defaults
// (β1 = 0.9, β2 = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64),
		v: make(map[*Param][]float64),
	}
}

// Step updates params from their gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, v := a.m[p], a.v[p]
		if m == nil {
			m, v = a.initMoments(p)
		}
		adamUpdate(p.Value.Data, m, v, p.Grad.Data, a.Beta1, a.Beta2, c1, c2, a.LR, a.Eps)
	}
}

// initMoments allocates p's zero moment vectors.
func (a *Adam) initMoments(p *Param) (m, v []float64) {
	m = make([]float64, len(p.Value.Data))
	v = make([]float64, len(p.Value.Data))
	a.m[p], a.v[p] = m, v
	return m, v
}

// AdamState is the optimiser's serialisable state, expressed relative
// to an ordered parameter list: M[i] and V[i] are the first and second
// moment vectors of params[i] (nil when the optimiser has not stepped
// yet), and T is the bias-correction timestep. Together with the
// parameter values themselves it makes an interrupted training run
// resumable bit-identically — without it, a restored network would
// restart Adam's moments at zero and diverge from the uninterrupted
// run on the first step.
//
//ermvet:wire
type AdamState struct {
	T    int
	M, V [][]float64
}

// AdamStateVersion numbers the optimiser-state wire format (it rides
// inside the agent gob); bump on any shape change (wiredrift gates it).
const AdamStateVersion = 1

// State exports the moment state of params, in order.
func (a *Adam) State(params []*Param) AdamState {
	st := AdamState{T: a.t, M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	for i, p := range params {
		if m := a.m[p]; m != nil {
			st.M[i] = append([]float64(nil), m...)
			st.V[i] = append([]float64(nil), a.v[p]...)
		}
	}
	return st
}

// SetState restores moment state captured with State onto params, which
// must be the same tensors in the same order (same count and lengths).
// A negative step count is an error: the next step's bias correction
// would be zero.
func (a *Adam) SetState(params []*Param, st AdamState) error {
	if st.T < 0 {
		return fmt.Errorf("nn: Adam state has step count %d", st.T)
	}
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: Adam state has %d/%d moment vectors, want %d",
			len(st.M), len(st.V), len(params))
	}
	m := make(map[*Param][]float64, len(params))
	v := make(map[*Param][]float64, len(params))
	for i, p := range params {
		if len(st.M[i]) == 0 && len(st.V[i]) == 0 {
			continue // param not stepped yet: Step lazily zero-initialises
		}
		if len(st.M[i]) != len(p.Value.Data) || len(st.V[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: Adam moment %d has %d/%d entries, param has %d",
				i, len(st.M[i]), len(st.V[i]), len(p.Value.Data))
		}
		m[p] = append([]float64(nil), st.M[i]...)
		v[p] = append([]float64(nil), st.V[i]...)
	}
	a.t = st.T
	a.m = m
	a.v = v
	return nil
}

// HuberGrad returns the gradient of the Huber loss (δ = 1) of the
// prediction error e = pred − target: e clipped to [-1, 1]. DQN uses it
// to keep large Bellman errors from destabilising training.
func HuberGrad(e float64) float64 {
	if e > 1 {
		return 1
	}
	if e < -1 {
		return -1
	}
	return e
}

// HuberLoss returns the Huber loss (δ = 1) whose gradient HuberGrad
// computes: ½·e² in the quadratic region, |e| − ½ beyond it.
func HuberLoss(e float64) float64 {
	if e > 1 {
		return e - 0.5
	}
	if e < -1 {
		return -e - 0.5
	}
	return 0.5 * e * e
}
