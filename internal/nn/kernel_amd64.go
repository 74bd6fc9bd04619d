package nn

// haveAVX reports whether the CPU has AVX and the operating system
// saves the YMM registers across context switches: CPUID leaf 1 sets
// OSXSAVE (ECX bit 27) and AVX (bit 28), and XCR0 enables the XMM and
// YMM state (bits 1 and 2).
func haveAVX() bool {
	const osxsaveAVX = 1<<27 | 1<<28
	if cpuid1ECX()&osxsaveAVX != osxsaveAVX {
		return false
	}
	return xgetbv0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0. Only call it when CPUID reports
// OSXSAVE.
func xgetbv0() uint32

// mulAddRowAVX is mulAddRowGo in AVX assembly. offs must be exactly as
// long as cs.
//
//go:noescape
func mulAddRowAVX(o, b, cs []float64, offs []int)

// adamAVX is adamGo in AVX assembly. m, v and g must be exactly as long
// as w.
//
//go:noescape
func adamAVX(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64)
