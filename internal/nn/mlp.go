package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// MLP is a multi-layer perceptron: Dense layers with ReLU activations
// between them and a linear output layer — the architecture of the
// paper's value network (Figure 5: DNN feature extractor z_t followed by
// a linear layer producing the logits q_t).
type MLP struct {
	sizes  []int
	dense  []*Dense
	relu   []*ReLU // relu[i] follows dense[i]; the output layer is linear
	params []*Param
	// in is Predict's input header. The first layer keeps its input,
	// so a header made per call would escape to the heap.
	in Matrix
}

// NewMLP builds an MLP with the given layer sizes, e.g.
// NewMLP(rng, 64, 128, 128, 10) for a 64-input, 10-output network with
// two hidden layers of 128 units.
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		d := NewDense(rng, sizes[i], sizes[i+1])
		m.dense = append(m.dense, d)
		m.params = append(m.params, d.W, d.B)
		if i+2 < len(sizes) {
			m.relu = append(m.relu, &ReLU{})
		}
	}
	return m
}

// Sizes returns the layer sizes the network was built with.
func (m *MLP) Sizes() []int { return append([]int(nil), m.sizes...) }

// Forward runs a batch through the network. The returned matrix is the
// network's output workspace: it stays valid until the next Forward
// (or Predict) on this network, which overwrites it.
func (m *MLP) Forward(x *Matrix) *Matrix {
	for i, d := range m.dense {
		x = d.Forward(x)
		if i < len(m.relu) {
			x = m.relu[i].Forward(x)
		}
	}
	return x
}

// Predict runs a single input vector and returns the output vector,
// which aliases the network's workspace like Forward's result.
func (m *MLP) Predict(v []float64) []float64 {
	m.in = Matrix{Rows: 1, Cols: len(v), Data: v}
	return m.Forward(&m.in).Row(0)
}

// ForwardAt runs a batch through the network but computes, of each row
// i's output, only the element at column actions[i], into q[i]: the
// Q-value of the action a transition took, which is all a DQN loss
// reads. For finite operands q[i] equals Forward's element
// (i, actions[i]) bit for bit.
// The hidden layers keep their inputs for Backward, so x and the
// network must not change until then.
func (m *MLP) ForwardAt(x *Matrix, actions []int, q []float64) {
	last := len(m.dense) - 1
	for i, d := range m.dense[:last] {
		x = m.relu[i].Forward(d.Forward(x))
	}
	m.dense[last].forwardAt(x, actions, q)
}

// Backward writes the parameter gradients (each Param's Grad, replacing
// what it held) of a loss whose gradient with respect to the output of
// row i is g[i] at column actions[i] and zero elsewhere. It reads what
// the last ForwardAt, with the same actions, kept; no Forward or
// Predict may run on the network in between. The input gradient of the
// first layer is never needed, so below a hidden layer it is not
// computed.
func (m *MLP) Backward(actions []int, g []float64) {
	last := len(m.dense) - 1
	gradOut := m.dense[last].backwardAt(actions, g)
	for i := last - 1; i >= 0; i-- {
		gradOut = m.relu[i].Backward(gradOut)
		if i == 0 {
			m.dense[0].gradients(gradOut)
		} else {
			gradOut = m.dense[i].Backward(gradOut)
		}
	}
}

// Params returns all trainable parameters, in layer order. The slice is
// the network's own and must not be modified.
func (m *MLP) Params() []*Param { return m.params }

// Clone returns a deep copy of the network (used for target networks).
func (m *MLP) Clone() *MLP {
	c := NewMLP(rand.New(rand.NewSource(0)), m.sizes...)
	c.CopyFrom(m)
	return c
}

// CopyFrom copies the other network's parameter values into this one.
// The architectures must match.
func (m *MLP) CopyFrom(other *MLP) {
	mp, op := m.Params(), other.Params()
	if len(mp) != len(op) {
		panic("nn: CopyFrom architecture mismatch")
	}
	for i := range mp {
		copy(mp[i].Value.Data, op[i].Value.Data)
	}
}

// snapshotVersion numbers the MLP gob format; bump on any shape change
// (wiredrift gates it).
const snapshotVersion = 1

// snapshot is the gob wire format of an MLP.
//
//ermvet:wire
type snapshot struct {
	Sizes  []int
	Values [][]float64
}

// Save serialises the network parameters.
func (m *MLP) Save(w io.Writer) error {
	s := snapshot{Sizes: m.sizes}
	for _, p := range m.Params() {
		s.Values = append(s.Values, append([]float64(nil), p.Value.Data...))
	}
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("nn: saving MLP: %w", err)
	}
	return nil
}

// LoadMLP deserialises a network saved with Save. A snapshot that does
// not describe a network, or whose tensors do not fit the layer sizes
// it names, is an error, found before anything is allocated for it.
func LoadMLP(r io.Reader) (*MLP, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: loading MLP: %w", err)
	}
	if err := s.check(); err != nil {
		return nil, fmt.Errorf("nn: loading MLP: %w", err)
	}
	m := NewMLP(rand.New(rand.NewSource(0)), s.Sizes...)
	for i, p := range m.Params() {
		copy(p.Value.Data, s.Values[i])
	}
	return m, nil
}

// check reports whether s names at least two layer sizes, each at least
// 1, and holds for every layer, in Params order, a weight tensor of
// in·out values and a bias of out values. It divides rather than
// multiplies, so no product of sizes can overflow.
func (s *snapshot) check() error {
	if len(s.Sizes) < 2 {
		return fmt.Errorf("snapshot has %d layer sizes, want at least 2", len(s.Sizes))
	}
	for i, n := range s.Sizes {
		if n < 1 {
			return fmt.Errorf("snapshot layer %d has size %d", i, n)
		}
	}
	if want := 2 * (len(s.Sizes) - 1); len(s.Values) != want {
		return fmt.Errorf("snapshot has %d tensors, architecture needs %d", len(s.Values), want)
	}
	for l, in := range s.Sizes[:len(s.Sizes)-1] {
		out := s.Sizes[l+1]
		if w := len(s.Values[2*l]); w%out != 0 || w/out != in {
			return fmt.Errorf("snapshot tensor %d has %d values, not %d×%d", 2*l, w, in, out)
		}
		if b := len(s.Values[2*l+1]); b != out {
			return fmt.Errorf("snapshot tensor %d has %d values, want %d", 2*l+1, b, out)
		}
	}
	return nil
}
