package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At broken")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Errorf("Row = %v", row)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone shares storage")
	}
	fr := FromRow([]float64{1, 2})
	if fr.Rows != 1 || fr.Cols != 2 || fr.At(0, 1) != 2 {
		t.Errorf("FromRow = %+v", fr)
	}
}

// naiveMul is the obvious triple loop used to validate the optimised
// multiplication kernels.
func naiveMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// operand draws an r×c matrix of one of the shapes the value network
// multiplies: dense values, ReLU outputs (about half zeros, some of
// them −0), binary one-hot rows with a few set dimensions (all-zero rows
// included), and loss gradients with one non-zero per row.
func operand(rng *rand.Rand, kind, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		switch kind {
		case 0:
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		case 1:
			for j := range row {
				switch v := rng.NormFloat64(); {
				case v >= 0:
					row[j] = v
				case v < -2:
					row[j] = math.Copysign(0, -1)
				}
			}
		case 2:
			for k := rng.Intn(4); k > 0; k-- {
				row[rng.Intn(c)] = 1
			}
		case 3:
			row[rng.Intn(c)] = rng.NormFloat64() / 32
		}
	}
	return m
}

// poisoned returns an r×c matrix of NaNs: a kernel must overwrite every
// element of its output, whatever a reused workspace held.
func poisoned(r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// bitsEq reports whether a and b have the same shape and bit-identical
// elements.
func bitsEq(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func naiveTranspose(a *Matrix) *Matrix {
	out := NewMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// TestMatMulKernels requires every product to equal the naive triple
// loop bit for bit — not within a tolerance — on random shapes and on
// every operand kind the network produces: skipping zero terms is exact
// only because each sum runs in ascending k from +0. Dense rows of up to
// 70 terms take the row kernel more than one call. It then drives the
// row kernel through MatMul and through MatMulATB's strided column
// reads on every output length from 0 to 67, with 0 to 9 non-zero terms
// a row and ±0, subnormals, ±Inf and NaN among the operands, against
// the naive loop that skips a's zeros.
func TestMatMulKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m, k, n := 1+rng.Intn(33), 1+rng.Intn(70), 1+rng.Intn(70)
		ka, kb := trial%4, trial/4%4
		a, b := operand(rng, ka, m, k), operand(rng, kb, k, n)
		out := poisoned(m, n)
		MatMul(out, a, b)
		if !bitsEq(out, naiveMul(a, b)) {
			t.Fatalf("MatMul %dx%d·%dx%d (kinds %d, %d) differs from the naive product", m, k, k, n, ka, kb)
		}
		c := operand(rng, kb, m, n)
		out = poisoned(k, n)
		MatMulATB(out, a, c)
		if !bitsEq(out, naiveMul(naiveTranspose(a), c)) {
			t.Fatalf("MatMulATB (%dx%d)ᵀ·%dx%d (kinds %d, %d) differs", m, k, m, n, ka, kb)
		}
		d := operand(rng, kb, n, k)
		out = poisoned(m, n)
		MatMulABT(out, a, d, poisoned(k, n))
		if !bitsEq(out, naiveMul(a, naiveTranspose(d))) {
			t.Fatalf("MatMulABT %dx%d·(%dx%d)ᵀ (kinds %d, %d) differs", m, k, n, k, ka, kb)
		}
	}
	for n := 0; n <= 67; n++ {
		depth := 9 + rng.Intn(4)
		a := NewMatrix(3, depth)
		for i := 0; i < a.Rows; i++ {
			for _, k := range rng.Perm(depth)[:(n+i)%10] {
				a.Set(i, k, kernelValue(rng))
			}
		}
		checkProducts(t, a, &Matrix{Rows: depth, Cols: n, Data: kernelSlice(rng, depth*n)})
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMul(NewMatrix(2, 5), NewMatrix(2, 3), NewMatrix(4, 5))
}

// TestGradientCheck compares the analytic gradients of an MLP against
// central finite differences on a scalar loss L = ½ Σ_i q_i² over the
// output q_i of row i at its action, the shape of the DQN loss.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mlp := NewMLP(rng, 4, 6, 3)
	x := randMatrix(rng, 3, 4)
	actions := []int{0, 2, 0}
	q := make([]float64, len(actions))

	loss := func() float64 {
		mlp.ForwardAt(x, actions, q)
		l := 0.0
		for _, v := range q {
			l += v * v
		}
		return 0.5 * l
	}

	// Analytic gradients: dL/dq = q. Backward overwrites every gradient,
	// so start from garbage.
	for _, p := range mlp.Params() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = math.NaN()
		}
	}
	mlp.ForwardAt(x, actions, q)
	mlp.Backward(actions, append([]float64(nil), q...))

	const eps = 1e-6
	for pi, p := range mlp.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := loss()
			p.Value.Data[i] = orig - eps
			lm := loss()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("param %d[%d]: numeric %g vs analytic %g", pi, i, numeric, analytic)
			}
		}
	}
}

// TestNegative checks the branch-free sign test ReLU uses against v < 0
// at the boundaries of the negative bit patterns.
func TestNegative(t *testing.T) {
	for _, v := range []float64{
		math.Copysign(0, -1), 0, math.NaN(), -math.NaN(), math.Inf(-1), math.Inf(1),
		-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
		-math.MaxFloat64, math.MaxFloat64, -1, 1,
	} {
		want := uint64(0)
		if v < 0 {
			want = ^want
		}
		if got := negative(v); got != want {
			t.Errorf("negative(%g, bits %#x) = %#x, want %#x", v, math.Float64bits(v), got, want)
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := FromRow([]float64{-1, 0, 2})
	out := r.Forward(x)
	want := []float64{0, 0, 2}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("ReLU out[%d] = %g", i, out.Data[i])
		}
	}
	grad := r.Backward(FromRow([]float64{1, 1, 1}))
	wantG := []float64{0, 1, 1}
	for i, w := range wantG {
		if grad.Data[i] != w {
			t.Errorf("ReLU grad[%d] = %g", i, grad.Data[i])
		}
	}
}

// TestMLPLearnsXOR: a 2-layer network with Adam must fit XOR.
func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewMLP(rng, 2, 16, 1)
	opt := NewAdam(0.01)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}

	x := NewMatrix(4, 2)
	for i, v := range xs {
		copy(x.Row(i), v)
	}
	actions := make([]int, 4) // the single output
	out, grad := make([]float64, 4), make([]float64, 4)
	var loss float64
	for epoch := 0; epoch < 2000; epoch++ {
		mlp.ForwardAt(x, actions, out)
		loss = 0
		for i := range ys {
			e := out[i] - ys[i]
			loss += e * e
			grad[i] = e / 4
		}
		mlp.Backward(actions, grad)
		opt.Step(mlp.Params())
	}
	if loss > 0.05 {
		t.Errorf("XOR loss after training = %g", loss)
	}
}

// TestOneHotPassesMatchDense holds the one-output passes to the dense
// ones bit for bit: forwardAt to Forward's element at each row's
// action, and backwardAt's weight, bias and input gradients to
// Backward's for the gradient matrix that is g[i] at column actions[i]
// and zero elsewhere, on every operand kind the network produces and
// with signed-zero gradients among the rest.
func TestOneHotPassesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		rows, in, out := 1+rng.Intn(33), 1+rng.Intn(70), 1+rng.Intn(30)
		oneHot, dense := NewDense(rng, in, out), NewDense(rng, in, out)
		copy(dense.W.Value.Data, oneHot.W.Value.Data)
		for j := range oneHot.B.Value.Data {
			oneHot.B.Value.Data[j] = rng.NormFloat64()
		}
		copy(dense.B.Value.Data, oneHot.B.Value.Data)
		x := operand(rng, trial%3, rows, in)
		actions, g := make([]int, rows), make([]float64, rows)
		gm := NewMatrix(rows, out)
		for i := range actions {
			actions[i] = rng.Intn(out)
			switch rng.Intn(8) {
			case 0:
				g[i] = math.Copysign(0, -1)
			case 1:
				g[i] = 0
			default:
				g[i] = rng.NormFloat64() / 32
			}
			gm.Set(i, actions[i], g[i])
		}

		q := make([]float64, rows)
		oneHot.forwardAt(x, actions, q)
		full := dense.Forward(x)
		for i, a := range actions {
			if math.Float64bits(q[i]) != math.Float64bits(full.At(i, a)) {
				t.Fatalf("trial %d: forwardAt row %d = %g, Forward %g", trial, i, q[i], full.At(i, a))
			}
		}
		for _, p := range []*Param{oneHot.W, oneHot.B, dense.W, dense.B} {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = math.NaN() // both passes write, not add
			}
		}
		dx := oneHot.backwardAt(actions, g)
		want := dense.Backward(gm)
		for _, c := range []struct {
			name      string
			got, want *Matrix
		}{{"dW", oneHot.W.Grad, dense.W.Grad}, {"db", oneHot.B.Grad, dense.B.Grad}, {"dx", dx, want}} {
			if !bitsEq(c.got, c.want) {
				t.Fatalf("trial %d (%dx%d → %d): backwardAt's %s differs from Backward's", trial, rows, in, out, c.name)
			}
		}
	}
}

func TestPredictMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mlp := NewMLP(rng, 3, 4, 2)
	v := []float64{0.1, -0.2, 0.3}
	p := append([]float64(nil), mlp.Predict(v)...) // Forward reuses Predict's workspace
	f := mlp.Forward(FromRow(v)).Row(0)
	for i := range p {
		if p[i] != f[i] {
			t.Errorf("Predict[%d] = %g, Forward = %g", i, p[i], f[i])
		}
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewMLP(rng, 2, 3, 1)
	b := a.Clone()
	in := []float64{0.5, -0.5}
	if a.Predict(in)[0] != b.Predict(in)[0] {
		t.Error("clone predicts differently")
	}
	// Mutate a; b is unaffected.
	a.Params()[0].Value.Data[0] += 1
	if a.Predict(in)[0] == b.Predict(in)[0] {
		t.Error("clone shares parameters")
	}
	b.CopyFrom(a)
	if a.Predict(in)[0] != b.Predict(in)[0] {
		t.Error("CopyFrom did not synchronise")
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMLP(rng, 2, 3, 1)
	b := NewMLP(rng, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("architecture mismatch did not panic")
		}
	}()
	a.CopyFrom(b)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := NewMLP(rng, 3, 5, 2)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := LoadMLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.3, 0.1, -0.7}
	pa, pb := a.Predict(in), b.Predict(in)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("loaded net differs at output %d", i)
		}
	}
	sizes := b.Sizes()
	if len(sizes) != 3 || sizes[0] != 3 || sizes[2] != 2 {
		t.Errorf("Sizes = %v", sizes)
	}
}

// TestLoadMLPGarbage requires every snapshot that is not a network to
// load as an error: undecodable bytes, too few or non-positive layer
// sizes (which used to panic in NewMLP or make), and tensors whose
// count or lengths do not fit the sizes, including a weight tensor
// whose true length in·out overflows to the length given.
func TestLoadMLPGarbage(t *testing.T) {
	if _, err := LoadMLP(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage decoded")
	}
	vals := func(ns ...int) [][]float64 {
		out := make([][]float64, len(ns))
		for i, n := range ns {
			out[i] = make([]float64, n)
		}
		return out
	}
	for _, s := range []snapshot{
		{Sizes: nil},
		{Sizes: []int{1}, Values: vals(1)},
		{Sizes: []int{3, -2, 4}, Values: vals(0, 0, 0, 4)},
		{Sizes: []int{0, 3}, Values: vals(0, 3)},
		{Sizes: []int{2, 3}, Values: vals(6)},
		{Sizes: []int{2, 3}, Values: vals(6, 3, 1)},
		{Sizes: []int{2, 3}, Values: vals(5, 3)},
		{Sizes: []int{2, 3}, Values: vals(6, 2)},
		{Sizes: []int{1 << 62, 4}, Values: vals(0, 4)},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("LoadMLP of sizes %v, %d tensors panicked: %v", s.Sizes, len(s.Values), r)
				}
			}()
			if _, err := LoadMLP(&buf); err == nil {
				t.Errorf("LoadMLP accepted sizes %v with %d tensors", s.Sizes, len(s.Values))
			}
		}()
	}
}

func TestHuberGrad(t *testing.T) {
	for _, tc := range []struct{ e, want float64 }{
		{0.5, 0.5}, {-0.5, -0.5}, {3, 1}, {-3, -1}, {0, 0},
	} {
		if got := HuberGrad(tc.e); got != tc.want {
			t.Errorf("HuberGrad(%g) = %g, want %g", tc.e, got, tc.want)
		}
	}
}

func TestNewMLPTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("one-size MLP did not panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(9)), 3)
}

func TestXavierFillRange(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewMatrix(10, 10)
	XavierFill(m, rng, 10, 10)
	limit := math.Sqrt(6.0 / 20.0)
	nonZero := 0
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %g outside Xavier limit %g", v, limit)
		}
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < 90 {
		t.Error("XavierFill left most values zero")
	}
}
