package nn

// mulAdd4Kernel is mulAdd4Go in SSE2 assembly. Every x must be exactly
// as long as o.
//
//go:noescape
func mulAdd4Kernel(o, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64)

// adamKernel is adamGo in SSE2 assembly. m, v and g must be exactly as
// long as w.
//
//go:noescape
func adamKernel(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64)
