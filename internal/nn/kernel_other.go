//go:build !amd64

package nn

func mulAdd4Kernel(o, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64) {
	mulAdd4Go(o, x0, x1, x2, x3, c0, c1, c2, c3)
}

func adamKernel(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64) {
	adamGo(w, m, v, g, b1, b2, c1, c2, lr, eps)
}
