// Package nn is a small, dependency-free neural-network library: dense
// layers with ReLU activations, the Huber loss, the Adam optimizer and
// gob serialisation. It exists to support the DQN value network of
// RLMiner (paper §IV-C) at the paper's scale — state vectors of tens to
// a few hundred dimensions and a few thousand training steps — where a
// CPU implementation is entirely sufficient.
//
// The products write into per-layer workspaces that grow to the largest
// batch a network has seen and are reused afterwards, so a steady-state
// training step allocates nothing. A matrix returned by Forward or
// Predict, or by a layer's Backward, therefore aliases that network's
// workspace: it stays valid until the network's next Forward, and a
// caller that needs it longer copies it. Every product sums each
// output element's non-zero terms in ascending k starting from +0,
// which makes skipping zero operands exact (DESIGN.md decision 22).
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

// Zero resets all elements to zero.
func (m *Matrix) Zero() { clear(m.Data) }

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
// skips the zero entries of a — one-hot states, ReLU zeros, the loss
// gradient's single non-zero per row — which leaves every bit unchanged
// (DESIGN.md decision 22). The non-zero terms of a row are applied four
// at a time, so an output element is loaded and stored once per four
// terms; it still rounds after each addition, in order.
func MatMul(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		shapePanic("MatMul", out, a, b)
	}
	n := b.Cols
	var c [4]float64
	var ks [4]int
	for i := 0; i < a.Rows; i++ {
		orow := out.Data[i*n : (i+1)*n]
		clear(orow)
		nk := 0
		for k, av := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			// Every entry is written to the next slot, but only a
			// non-zero one claims it: a conditional move, where a branch
			// would mispredict on the ReLU zero pattern.
			c[nk&3], ks[nk&3] = av, k
			if av != 0 {
				nk++
			}
			if nk == 4 {
				c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
				x0, x1 := b.Data[ks[0]*n:][:n], b.Data[ks[1]*n:][:n]
				x2, x3 := b.Data[ks[2]*n:][:n], b.Data[ks[3]*n:][:n]
				for j := range orow {
					orow[j] = orow[j] + c0*x0[j] + c1*x1[j] + c2*x2[j] + c3*x3[j]
				}
				nk = 0
			}
		}
		for t := 0; t < nk; t++ {
			ct, x := c[t], b.Data[ks[t]*n:][:n]
			for j := range orow {
				orow[j] += ct * x[j]
			}
		}
	}
}

// MatMulATB computes out = aᵀ·b, overwriting out, which must be
// a.Cols×b.Cols, and at, which must be a.Cols×a.Rows, with aᵀ.
func MatMulATB(out, a, b, at *Matrix) {
	transpose(at, a)
	MatMul(out, at, b)
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
