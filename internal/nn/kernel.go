package nn

import "math"

// The two inner loops of a training step run as kernels: on amd64 in
// SSE2 assembly (kernel_amd64.s), elsewhere as the Go loops below,
// which are also the tests' reference. A kernel performs the same
// operations as its Go loop, in the same order, each rounded once, so
// the two agree bit for bit, up to which payload a NaN result carries.
// The assembly checks no bounds: these wrappers reslice every operand
// to the length of the output first.

// mulAdd4 sets o[j] = o[j] + c0·x0[j] + c1·x1[j] + c2·x2[j] + c3·x3[j]
// for every j < len(o), evaluated left to right. Each x must be at
// least as long as o.
func mulAdd4(o, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64) {
	n := len(o)
	mulAdd4Kernel(o, x0[:n], x1[:n], x2[:n], x3[:n], c0, c1, c2, c3)
}

// mulAdd4Go is mulAdd4's loop in Go.
func mulAdd4Go(o, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64) {
	x0, x1, x2, x3 = x0[:len(o)], x1[:len(o)], x2[:len(o)], x3[:len(o)]
	for j := range o {
		o[j] = o[j] + c0*x0[j] + c1*x1[j] + c2*x2[j] + c3*x3[j]
	}
}

// adamUpdate applies Adam's update to every element i < len(w): the
// moments m[i] and v[i] take the gradient g[i] with decay rates b1 and
// b2, and w[i] steps by lr against the moments' bias-corrected ratio
// (c1 and c2 are the bias corrections). m, v and g must be at least as
// long as w.
func adamUpdate(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64) {
	n := len(w)
	adamKernel(w, m[:n], v[:n], g[:n], b1, b2, c1, c2, lr, eps)
}

// adamGo is adamUpdate's loop in Go.
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
