package nn

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// TestAVXSelected fails when Linux lists avx among the CPU's flags but
// the package chose the Go loops, so that a detection bug cannot drop
// the AVX kernels, and their speed, without a failing test.
func TestAVXSelected(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads the CPU flags from /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading the CPU flags: %v", err)
	}
	listed := false
	for _, line := range bytes.Split(info, []byte("\n")) {
		name, flags, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(bytes.TrimSpace(name)) != "flags" {
			continue
		}
		for _, f := range bytes.Fields(flags) {
			listed = listed || string(f) == "avx"
		}
		break
	}
	if !listed {
		t.Skip("the CPU flags do not list avx")
	}
	if !avx {
		t.Fatalf("/proc/cpuinfo lists avx, but the package runs the Go loops (haveAVX() = %v)", haveAVX())
	}
}
