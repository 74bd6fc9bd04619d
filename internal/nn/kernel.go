package nn

import "math"

// The two inner loops of a training step run as kernels: a product
// row's update and Adam's element update. On amd64 CPUs with AVX they
// are the assembly in kernel_amd64.s; everywhere else the Go loops
// below run, which are also the tests' reference. A kernel performs the
// same operations as its Go loop, in the same order, each rounded once,
// so the two agree bit for bit, up to which payload a NaN result
// carries. The assembly checks no bounds: adamUpdate reslices every
// operand to w's length, and product, the row kernel's one caller,
// reslices b so that every offset it lists fits.

// avx reports whether the AVX kernels run. It is set once, when the
// package is initialised, from what the CPU and the operating system
// support (kernel_amd64.go), and only tests change it afterwards.
var avx = haveAVX()

// mulAddRow adds to every o[j], j < len(o), the terms cs[t]·b[offs[t]+j]
// for t = 0, 1, …, len(cs)−1 in that order, rounding after each product
// and each addition. offs must be at least as long as cs, and
// offs[t]+len(o) at most len(b) for every t < len(cs): the assembly
// reads b unchecked.
func mulAddRow(o, b, cs []float64, offs []int) {
	offs = offs[:len(cs)]
	if avx {
		mulAddRowAVX(o, b, cs, offs)
		return
	}
	mulAddRowGo(o, b, cs, offs)
}

// mulAddRowGo is mulAddRow's loop in Go.
func mulAddRowGo(o, b, cs []float64, offs []int) {
	for t, c := range cs {
		x := b[offs[t]:][:len(o)]
		for j := range o {
			o[j] = o[j] + c*x[j]
		}
	}
}

// adamUpdate applies Adam's update to every element i < len(w): the
// moments m[i] and v[i] take the gradient g[i] with decay rates b1 and
// b2, and w[i] steps by lr against the moments' bias-corrected ratio
// (c1 and c2 are the bias corrections). m, v and g must be at least as
// long as w.
func adamUpdate(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64) {
	n := len(w)
	m, v, g = m[:n], v[:n], g[:n]
	if avx {
		adamAVX(w, m, v, g, b1, b2, c1, c2, lr, eps)
		return
	}
	adamGo(w, m, v, g, b1, b2, c1, c2, lr, eps)
}

// adamGo is adamUpdate's loop in Go. The AVX kernel leaves out the
// division by c1 when c1 is exactly 1, from the 356th step of the
// default β1 = 0.9 on, because x/1 is x.
func adamGo(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64) {
	m, v, g = m[:len(w)], v[:len(w)], g[:len(w)]
	for i, gi := range g {
		m[i] = b1*m[i] + (1-b1)*gi
		v[i] = b2*v[i] + (1-b2)*gi*gi
		mhat := m[i] / c1
		vhat := v[i] / c2
		w[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}
