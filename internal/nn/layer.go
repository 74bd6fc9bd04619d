package nn

import (
	"math"
	"math/bits"
	"math/rand"
)

// Param is one trainable tensor with the gradient of the last backward
// pass.
type Param struct {
	Value *Matrix
	Grad  *Matrix
}

// Dense is a fully connected layer y = x·W + b.
type Dense struct {
	W, B *Param
	x    *Matrix // input of the last forward pass, kept for the backward one

	// Workspaces: the output, the input gradient, and Wᵀ for the input
	// gradient's product.
	out, dx, t *Matrix
}

// NewDense builds a Dense layer with Xavier-initialised weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	w := NewMatrix(in, out)
	XavierFill(w, rng, in, out)
	return &Dense{
		W: &Param{Value: w, Grad: NewMatrix(in, out)},
		B: &Param{Value: NewMatrix(1, out), Grad: NewMatrix(1, out)},
	}
}

// Forward returns x·W + b in the layer's output workspace, valid until
// the next Forward. It keeps x for Backward.
func (d *Dense) Forward(x *Matrix) *Matrix {
	d.x = x
	d.out = resize(d.out, x.Rows, d.W.Value.Cols)
	MatMul(d.out, x, d.W.Value)
	for r := 0; r < d.out.Rows; r++ {
		row := d.out.Row(r)
		b := d.B.Value.Data[:len(row)]
		for j := range row {
			row[j] += b[j]
		}
	}
	return d.out
}

// Backward writes the parameter gradients of gradOut (the gradient with
// respect to the last Forward's output) to W.Grad and B.Grad and
// returns the gradient with respect to the input, in the layer's
// workspace.
func (d *Dense) Backward(gradOut *Matrix) *Matrix {
	d.gradients(gradOut)
	d.dx = resize(d.dx, gradOut.Rows, d.W.Value.Rows)
	d.t = resize(d.t, d.W.Value.Cols, d.W.Value.Rows)
	MatMulABT(d.dx, gradOut, d.W.Value, d.t)
	return d.dx
}

// gradients is Backward without the input gradient: dW = xᵀ·gradOut
// and db = the column sums of gradOut.
func (d *Dense) gradients(gradOut *Matrix) {
	MatMulATB(d.W.Grad, d.x, gradOut)
	gb := d.B.Grad.Data[:gradOut.Cols]
	clear(gb)
	for r := 0; r < gradOut.Rows; r++ {
		for j, v := range gradOut.Row(r) {
			gb[j] += v
		}
	}
}

// forwardAt writes to q[i] the single output x_i·W[:, a] + b[a] of row
// i at column a = actions[i], for every row of x. It sums the row's
// products in ascending k from +0 and adds the bias last, as Forward
// does, so for finite operands q[i] equals Forward's element (i, a)
// bit for bit. It keeps x for backwardAt.
func (d *Dense) forwardAt(x *Matrix, actions []int, q []float64) {
	d.x = x
	w, n := d.W.Value.Data, d.W.Value.Cols
	for i := range q[:x.Rows] {
		a := actions[i]
		s := 0.0
		for k, v := range x.Row(i) {
			s += v * w[k*n+a]
		}
		q[i] = s + d.B.Value.Data[a]
	}
}

// backwardAt is Backward for a gradient that is g[i] at column
// actions[i] of row i and zero elsewhere, the shape of a loss that reads
// one output per row. The weight gradient is then a scatter,
// dW[k][a_i] += x[i][k]·g[i] in ascending i, the bias gradient
// db[a_i] += g[i], and the input gradient dx[i][k] = +0 + g[i]·W[k][a_i]:
// the terms Backward's products would add, in the same order, without
// the zero ones.
func (d *Dense) backwardAt(actions []int, g []float64) *Matrix {
	x, w, n := d.x, d.W.Value.Data, d.W.Value.Cols
	dw, db := d.W.Grad.Data, d.B.Grad.Data
	clear(dw)
	clear(db)
	d.dx = resize(d.dx, x.Rows, x.Cols)
	for i, gi := range g[:x.Rows] {
		a := actions[i]
		db[a] += gi
		dx := d.dx.Row(i)
		for k, v := range x.Row(i) {
			dw[k*n+a] += v * gi
			dx[k] = 0 + gi*w[k*n+a]
		}
	}
	return d.dx
}

// ReLU is the rectified linear activation.
type ReLU struct {
	x         *Matrix // input of the last Forward, kept for Backward
	out, grad *Matrix // workspaces
}

// Forward returns max(x, 0) in the layer's output workspace, valid
// until the next Forward. It keeps x for Backward.
func (r *ReLU) Forward(x *Matrix) *Matrix {
	r.x = x
	r.out = resize(r.out, x.Rows, x.Cols)
	out := r.out.Data[:len(x.Data)]
	for i, v := range x.Data {
		out[i] = math.Float64frombits(math.Float64bits(v) &^ negative(v))
	}
	return r.out
}

// negative is all ones when v < 0 and zero otherwise (−0 and NaN are not
// negative). It does not branch: the sign of a hidden unit is a coin
// flip that a branch predictor loses half the time. The negative values
// are exactly the bit patterns 0x8000000000000001 through
// 0xfff0000000000000 (−Inf).
func negative(v float64) uint64 {
	_, borrow := bits.Sub64(math.Float64bits(v)-0x8000000000000001, 0x7ff0000000000000, 0)
	return -borrow
}

// Backward returns gradOut with the entries whose input was negative
// zeroed, in the layer's workspace.
func (r *ReLU) Backward(gradOut *Matrix) *Matrix {
	r.grad = resize(r.grad, gradOut.Rows, gradOut.Cols)
	g := r.grad.Data[:len(gradOut.Data)]
	x := r.x.Data[:len(gradOut.Data)]
	for i, v := range gradOut.Data {
		g[i] = math.Float64frombits(math.Float64bits(v) &^ negative(x[i]))
	}
	return r.grad
}
