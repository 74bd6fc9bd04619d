//go:build !amd64

package nn

// Only amd64 has assembly kernels: elsewhere avx stays false, and these
// stand-ins for the assembly, which nothing then calls, run the Go loops.

func haveAVX() bool { return false }

func mulAddRowAVX(o, b, cs []float64, offs []int) { mulAddRowGo(o, b, cs, offs) }

func adamAVX(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64) {
	adamGo(w, m, v, g, b1, b2, c1, c2, lr, eps)
}
