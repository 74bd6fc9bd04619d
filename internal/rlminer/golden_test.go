package rlminer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"erminer/internal/rulesio"
)

// TestMineGolden pins a short fixed-seed RLMiner mine bit for bit: the
// SHA-256 of the rules it exports and of the Float64bits of every
// parameter of its trained value network. The constant is that of the
// naive triple-loop product (DESIGN.md decision 22).
func TestMineGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets gc fuse x*y + z into one rounding on arm64,
		// ppc64le, s390x and riscv64; amd64 fuses only math.FMA.
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const want = "59dde3b3687376b1eedbe088d40ceb62e16505eaae01957dcd19c65c34d4e84a"
	p := covidProblem(t, 400, 3)
	m := New(Config{TrainSteps: 300, Seed: 7})
	rs, err := m.Mine(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rulesio.Export(p, rs.Rules)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(data)
	for _, prm := range m.Network().Params() {
		for _, v := range prm.Value.Data {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("mine hash = %s, want %s (%d rules)", got, want, len(rs.Rules))
	}
}
