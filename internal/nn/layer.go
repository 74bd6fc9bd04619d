package nn

import (
	"math"
	"math/bits"
	"math/rand"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Value *Matrix
	Grad  *Matrix
}

// Dense is a fully connected layer y = x·W + b.
type Dense struct {
	W, B *Param
	x    *Matrix // input of the last Forward, kept for Backward

	// Workspaces: the output, the input gradient, the weight gradient
	// of the last pass, and the transposed operand of a gradient product.
	out, dx, dw, t *Matrix
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
//
//ermvet:hotpath
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

// Backward adds the parameter gradients of gradOut (the gradient with
// respect to the last Forward's output) to W.Grad and B.Grad and
// returns the gradient with respect to the input, in the layer's
// workspace.
//
//ermvet:hotpath
func (d *Dense) Backward(gradOut *Matrix) *Matrix {
	d.accumulate(gradOut)
	d.dx = resize(d.dx, gradOut.Rows, d.W.Value.Rows)
	d.t = resize(d.t, d.W.Value.Cols, d.W.Value.Rows)
	MatMulABT(d.dx, gradOut, d.W.Value, d.t)
	return d.dx
}

// accumulate is Backward without the input gradient: dW += xᵀ·gradOut
// and db += the column sums of gradOut.
func (d *Dense) accumulate(gradOut *Matrix) {
	d.dw = resize(d.dw, d.W.Value.Rows, d.W.Value.Cols)
	d.t = resize(d.t, d.x.Cols, d.x.Rows)
	MatMulATB(d.dw, d.x, gradOut, d.t)
	gw := d.W.Grad.Data[:len(d.dw.Data)]
	for i, v := range d.dw.Data {
		gw[i] += v
	}
	for r := 0; r < gradOut.Rows; r++ {
		row := gradOut.Row(r)
		gb := d.B.Grad.Data[:len(row)]
		for j, v := range row {
			gb[j] += v
		}
	}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	x         *Matrix // input of the last Forward, kept for Backward
	out, grad *Matrix // workspaces
}

// Forward returns max(x, 0) in the layer's output workspace, valid
// until the next Forward. It keeps x for Backward.
//
//ermvet:hotpath
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
//
//ermvet:hotpath
func (r *ReLU) Backward(gradOut *Matrix) *Matrix {
	r.grad = resize(r.grad, gradOut.Rows, gradOut.Cols)
	g := r.grad.Data[:len(gradOut.Data)]
	x := r.x.Data[:len(gradOut.Data)]
	for i, v := range gradOut.Data {
		g[i] = math.Float64frombits(math.Float64bits(v) &^ negative(x[i]))
	}
	return r.grad
}
