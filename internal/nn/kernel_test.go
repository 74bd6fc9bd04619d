package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the operands where floating-point kernels usually part
// ways: signed zeros, subnormals, the largest finites, infinities and
// NaN.
var specials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
}

// kernelValue draws a kernel operand: mostly a normal value, sometimes
// one of specials.
func kernelValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
}

func kernelSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = kernelValue(rng)
	}
	return s
}

// sameBits reports the first index where a and b hold different bits,
// or −1, counting any two NaNs as equal: which operand's NaN payload an
// SSE or AVX operation keeps depends on operand order, which Go does
// not specify for a commutative + or *, and no trained value depends on
// a payload.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// checkRow runs mulAddRow and its Go reference on copies of the same
// output row and reports the first element where they differ.
func checkRow(t *testing.T, o, b, cs []float64, offs []int) {
	t.Helper()
	got, want := append([]float64(nil), o...), append([]float64(nil), o...)
	mulAddRow(got, b, cs, offs)
	mulAddRowGo(want, b, cs, offs)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("mulAddRow len %d, %d terms %v at %v: element %d = %g (%#x), Go loop %g (%#x); o %g",
			len(o), len(cs), cs, offs, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), o[i])
	}
}

// checkAdam runs adamUpdate and its Go reference on copies of the same
// state and reports the first element of w, m or v where they differ.
func checkAdam(t *testing.T, w, m, v, g []float64, k [6]float64) {
	t.Helper()
	gw, gm, gv := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
	ww, wm, wv := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
	adamUpdate(gw, gm, gv, g, k[0], k[1], k[2], k[3], k[4], k[5])
	adamGo(ww, wm, wv, g, k[0], k[1], k[2], k[3], k[4], k[5])
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"w", gw, ww}, {"m", gm, wm}, {"v", gv, wv}} {
		if i := sameBits(c.got, c.want); i >= 0 {
			t.Fatalf("adamUpdate len %d, consts %v: %s[%d] = %g (%#x), Go loop %g (%#x); w %g m %g v %g g %g",
				len(w), k, c.name, i, c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]),
				w[i], m[i], v[i], g[i])
		}
	}
}

// TestKernelsMatchGo holds each kernel to its Go loop bit for bit. The
// row kernel runs on every output length from 0 to 67 (every block and
// tail of the assembly) with 0 to 9 terms at offsets anywhere in b,
// Adam on every length from 0 to 67 on operands longer than the output,
// a quarter of the time with c1 exactly 1 (the division the assembly
// skips), and both with ±0, subnormals, the largest finites, ±Inf and
// NaN among the operands and the constants.
func TestKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adamConsts := func() [6]float64 {
		k := [6]float64{0.9, 0.999, 1 - math.Pow(0.9, 3), 1 - math.Pow(0.999, 3), 1e-3, 1e-8}
		switch rng.Intn(4) {
		case 0:
			k[rng.Intn(len(k))] = kernelValue(rng)
		case 1:
			k[2] = 1 - math.Pow(0.9, 400) // exactly 1
		}
		return k
	}
	for trial := 0; trial < 20; trial++ {
		for n := 0; n <= 67; n++ {
			nk := (n + trial) % 10
			b := kernelSlice(rng, (nk+3)*n+rng.Intn(3))
			cs, offs := kernelSlice(rng, nk), make([]int, nk)
			for t := range offs {
				offs[t] = rng.Intn(len(b) - n + 1)
			}
			checkRow(t, kernelSlice(rng, n), b, cs, offs)

			extra := rng.Intn(3)
			g := kernelSlice(rng, n+extra)
			m, v := kernelSlice(rng, n+extra), kernelSlice(rng, n+extra)
			for i := range v {
				if trial%2 == 0 {
					v[i] = math.Abs(v[i]) // a second moment is never negative
				}
			}
			checkAdam(t, kernelSlice(rng, n), m, v, g, adamConsts())
		}
	}
}

// naiveSkip is the product the row kernel computes: each element sums,
// in ascending k from +0, a's non-zero entries times b's.
func naiveSkip(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				if av := a.At(i, k); av != 0 {
					s += av * b.At(k, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// checkProducts runs MatMul on a and MatMulATB on aᵀ, which reads a's
// rows as strided columns, and holds both to naiveSkip.
func checkProducts(t *testing.T, a, b *Matrix) {
	t.Helper()
	want := naiveSkip(a, b)
	got := poisoned(a.Rows, b.Cols)
	MatMul(got, a, b)
	if i := sameBits(got.Data, want.Data); i >= 0 {
		t.Fatalf("MatMul %dx%d·%dx%d: element %d = %g, want %g", a.Rows, a.Cols, b.Rows, b.Cols, i, got.Data[i], want.Data[i])
	}
	got = poisoned(a.Rows, b.Cols)
	MatMulATB(got, naiveTranspose(a), b)
	if i := sameBits(got.Data, want.Data); i >= 0 {
		t.Fatalf("MatMulATB (%dx%d)ᵀ·%dx%d: element %d = %g, want %g", a.Cols, a.Rows, b.Rows, b.Cols, i, got.Data[i], want.Data[i])
	}
}

// FuzzKernels holds both kernels to their Go loops on arbitrary bit
// patterns: the input's 8-byte words are the constants, then the output
// and four rows of operands interleaved element by element. The row
// kernel takes the first four constants as its terms, directly and
// through both products (a 1×4 row and, read as a strided column, a 4×1
// one); Adam runs once with the fuzzed constants and once with c1
// exactly 1.
func FuzzKernels(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(word(0.9, 0.999, 0.1, 0.001, 1e-3, 1e-8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	f.Add(word(specials...))
	f.Add(word(append(append([]float64(nil), specials...), specials...)...))
	f.Add(word(append([]float64{0, 2, 0, -3, 1e-3, 1e-8}, specials...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vs []float64
		for ; len(data) >= 8; data = data[8:] {
			vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(vs) < 6 {
			return
		}
		k := [6]float64(vs[:6])
		vs = vs[6:]
		n := len(vs) / 5
		col := func(j int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = vs[5*i+j]
			}
			return s
		}
		o := col(0)
		b := &Matrix{Rows: 4, Cols: n, Data: append(append(append(col(1), col(2)...), col(3)...), col(4)...)}
		checkRow(t, o, b.Data, k[:4], []int{0, n, 2 * n, 3 * n})
		checkProducts(t, FromRow(k[:4]), b)
		checkAdam(t, o, col(1), col(2), col(3), k)
		k[2] = 1
		checkAdam(t, o, col(1), col(2), col(3), k)
	})
}

// TestKernelPathsTrainIdentically trains one small network twice, once
// on the kernels the package chose and once on the Go loops, for 450
// Adam steps of sparse and dense inputs through ReLU layers, and
// requires every parameter and Adam moment to hold the same bits. The
// steps run past the 356th, from which c1 is exactly 1 and the AVX Adam
// kernel skips its division. On an AVX host this is the only test that
// runs the Go loops end to end.
func TestKernelPathsTrainIdentically(t *testing.T) {
	if !avx {
		t.Skip("this CPU runs the Go loops only")
	}
	train := func() ([]*Param, AdamState) {
		rng := rand.New(rand.NewSource(5))
		net := NewMLP(rng, 12, 24, 16, 5)
		opt := NewAdam(1e-3)
		x := NewMatrix(8, 12)
		actions := make([]int, x.Rows)
		q, g := make([]float64, x.Rows), make([]float64, x.Rows)
		for step := 0; step < 450; step++ {
			for i := 0; i < x.Rows; i++ {
				row := x.Row(i)
				clear(row)
				for k := rng.Intn(4); k > 0; k-- {
					row[rng.Intn(len(row))] = 1
				}
				if i%2 == 1 {
					row[rng.Intn(len(row))] = rng.NormFloat64()
				}
				actions[i] = rng.Intn(5)
			}
			net.ForwardAt(x, actions, q)
			for i := range g {
				g[i] = HuberGrad(q[i]-float64(actions[i]%2)-x.At(i, 0)) / float64(len(g))
			}
			net.Backward(actions, g)
			opt.Step(net.Params())
		}
		return net.Params(), opt.State(net.Params())
	}
	kp, ks := train()
	avx = false
	defer func() { avx = true }()
	gp, gs := train()

	same := func(what string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %g (%#x) on the AVX kernels, %g (%#x) on the Go loops",
					what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
	}
	if ks.T != gs.T {
		t.Fatalf("Adam step count %d against %d", ks.T, gs.T)
	}
	for i := range kp {
		same(fmt.Sprintf("param %d", i), kp[i].Value.Data, gp[i].Value.Data)
		same(fmt.Sprintf("first moment %d", i), ks.M[i], gs.M[i])
		same(fmt.Sprintf("second moment %d", i), ks.V[i], gs.V[i])
	}
}
