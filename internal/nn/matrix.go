// Package nn is a small, dependency-free neural-network library: dense
// layers with ReLU activations, the Huber loss, the Adam optimizer and
// gob serialisation. It exists to support the DQN value network of
// RLMiner (paper §IV-C) at the paper's scale — state vectors of tens to
// a few hundred dimensions and a few thousand training steps — where a
// CPU implementation is entirely sufficient.
//
// Training follows the DQN loss, which reads one output of each row:
// MLP.ForwardAt computes only that output, and MLP.Backward takes the
// loss gradient as one value per row and writes, rather than adds to,
// every parameter gradient. The output layer's products then shrink to
// a dot product and a scatter per row (DESIGN.md decision 26). The two
// inner loops left, a product row's update and Adam's element update,
// run as AVX kernels on amd64 CPUs that have AVX (kernel.go).
//
// The products write into per-layer workspaces that grow to the largest
// batch a network has seen and are reused afterwards, so a steady-state
// training step allocates nothing. A matrix returned by Forward or
// Predict, or by a layer's Backward, therefore aliases that network's
// workspace: it stays valid until the network's next Forward,
// ForwardAt or Predict, and a caller that needs it longer copies it.
// Every product sums each output element's non-zero terms in ascending
// k starting from +0, which makes skipping zero operands exact
// (DESIGN.md decision 22); the one-output passes add the same terms in
// the same order.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRow wraps a single row vector (shared backing slice).
func FromRow(v []float64) *Matrix {
	return &Matrix{Rows: 1, Cols: len(v), Data: v}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice sharing the matrix backing store.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// resize returns ws reshaped to rows×cols over its own backing store,
// or a new zero matrix when ws is nil or too small. The contents of a
// reshaped workspace are stale; every caller overwrites them.
func resize(ws *Matrix, rows, cols int) *Matrix {
	if ws == nil || cap(ws.Data) < rows*cols {
		return grow(rows, cols)
	}
	ws.Rows, ws.Cols, ws.Data = rows, cols, ws.Data[:rows*cols]
	return ws
}

// grow allocates a workspace.
func grow(rows, cols int) *Matrix { return NewMatrix(rows, cols) }

// shapePanic reports a product or transpose of incompatible shapes.
func shapePanic(op string, out, a, b *Matrix) {
	panic(fmt.Sprintf("nn: %s shape mismatch (%dx%d) from (%dx%d), (%dx%d)",
		op, out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
}

// MatMul computes out = a·b, overwriting out, which must be
// a.Rows×b.Cols. Each element sums its terms in ascending k from +0 and
// skips the zero entries of a — one-hot states, ReLU zeros — which
// leaves every bit unchanged (DESIGN.md decision 22).
func MatMul(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		shapePanic("MatMul", out, a, b)
	}
	product(out, a.Data[:a.Rows*a.Cols], b, a.Cols, 1)
}

// MatMulATB computes out = aᵀ·b, overwriting out, which must be
// a.Cols×b.Cols. It reads a's columns in place, as MatMul reads a's
// rows.
func MatMulATB(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		shapePanic("MatMulATB", out, a, b)
	}
	product(out, a.Data[:a.Rows*a.Cols], b, 1, a.Cols)
}

// rowTerms is how many entries of a row of A product scans before it
// hands their non-zero terms to the row kernel. A row longer than that
// takes several calls, which add the same terms in the same order: the
// kernel resumes from the row's stored partial sums.
const rowTerms = 64

// product sets out = A·b for the out.Rows×b.Rows matrix A whose element
// (i, k) is a[i·rs + k·ks]. It clears each output row, lists the row's
// non-zero terms with their offsets into b, and hands the list to the
// row kernel, so every element sums its non-zero terms in ascending k
// from +0.
func product(out *Matrix, a []float64, b *Matrix, rs, ks int) {
	n := b.Cols
	bd := b.Data[:b.Rows*n] // the row kernel reads b unchecked
	var cs [rowTerms]float64
	var offs [rowTerms]int
	for i := 0; i < out.Rows; i++ {
		o := out.Data[i*n : (i+1)*n]
		clear(o)
		for k := 0; k < b.Rows; k += rowTerms {
			nk := nonZeros(&cs, &offs, a, i*rs+k*ks, ks, k*n, n, min(rowTerms, b.Rows-k))
			mulAddRow(o, bd, cs[:nk], offs[:nk])
		}
	}
}

// nonZeros lists in cs and offs the non-zero entries among the m ≤
// rowTerms entries a[p], a[p+ks], …, each with its offset into b, which
// starts at off and grows by n an entry, and returns how many it
// listed. It is a function of its own so that its few variables stay in
// registers.
//
//go:noinline
func nonZeros(cs *[rowTerms]float64, offs *[rowTerms]int, a []float64, p, ks, off, n, m int) int {
	nk := 0
	for ; m > 0; m-- {
		av := a[p]
		// Every entry is written to the next slot, but only a non-zero
		// one claims it: a conditional move, where a branch would
		// mispredict on the ReLU zero pattern.
		t := nk & (rowTerms - 1)
		cs[t], offs[t] = av, off
		if av != 0 {
			nk++
		}
		p += ks
		off += n
	}
	return nk
}

// MatMulABT computes out = a·bᵀ, overwriting out, which must be
// a.Rows×b.Rows, and bt, which must be b.Cols×b.Rows, with bᵀ.
func MatMulABT(out, a, b, bt *Matrix) {
	transpose(bt, b)
	MatMul(out, a, bt)
}

// transpose writes aᵀ into out, which must be a.Cols×a.Rows.
func transpose(out, a *Matrix) {
	if out.Rows != a.Cols || out.Cols != a.Rows {
		shapePanic("transpose", out, a, a)
	}
	for i := 0; i < a.Rows; i++ {
		for k, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			out.Data[k*a.Rows+i] = v
		}
	}
}

// XavierFill initialises the matrix with Glorot-uniform values for a
// layer with the given fan-in and fan-out.
func XavierFill(m *Matrix, rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}
