package nn

import (
	"encoding/binary"
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

// sameBits reports whether a and b hold the same bits, counting any two
// NaNs as equal: which operand's NaN payload an SSE operation keeps
// depends on operand order, which Go does not specify for a commutative
// + or *, and no trained value depends on a payload.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// checkMulAdd4 runs mulAdd4 and its Go reference on copies of the same
// operands and reports the first element where they differ.
func checkMulAdd4(t *testing.T, o []float64, xs [4][]float64, c [4]float64) {
	t.Helper()
	got, want := append([]float64(nil), o...), append([]float64(nil), o...)
	mulAdd4(got, xs[0], xs[1], xs[2], xs[3], c[0], c[1], c[2], c[3])
	mulAdd4Go(want, xs[0], xs[1], xs[2], xs[3], c[0], c[1], c[2], c[3])
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("mulAdd4 len %d, c %v: element %d = %g (%#x), Go loop %g (%#x); o %g, x %g %g %g %g",
			len(o), c, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]),
			o[i], xs[0][i], xs[1][i], xs[2][i], xs[3][i])
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

// TestKernelsMatchGo holds each kernel to its Go loop bit for bit on
// every length from 0 to 67 (so every pass and tail of the assembly
// runs), on operands longer than the output, and with zeros, ±0,
// subnormals, ±Inf and NaN among the operands and the constants.
func TestKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adamConsts := func() [6]float64 {
		k := [6]float64{0.9, 0.999, 1 - math.Pow(0.9, 3), 1 - math.Pow(0.999, 3), 1e-3, 1e-8}
		if rng.Intn(4) == 0 {
			k[rng.Intn(len(k))] = kernelValue(rng)
		}
		return k
	}
	for trial := 0; trial < 20; trial++ {
		for n := 0; n <= 67; n++ {
			extra := rng.Intn(3)
			var xs [4][]float64
			for i := range xs {
				xs[i] = kernelSlice(rng, n+extra)
			}
			c := [4]float64{kernelValue(rng), kernelValue(rng), kernelValue(rng), kernelValue(rng)}
			checkMulAdd4(t, kernelSlice(rng, n), xs, c)

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

// FuzzKernels holds both kernels to their Go loops on arbitrary bit
// patterns: the input's 8-byte words are the constants, then the output
// and operands interleaved element by element.
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
		checkMulAdd4(t, o, [4][]float64{col(1), col(2), col(3), col(4)}, [4]float64{k[0], k[1], k[2], k[3]})
		checkAdam(t, o, col(1), col(2), col(3), k)
	})
}
