package enuminer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"erminer/internal/core"
	"erminer/internal/datagen"
	"erminer/internal/errgen"
)

// assertIdenticalResults requires got to be bit-identical to want:
// same Explored count, same rules in the same order, same measures
// (exact float equality, covers included).
func assertIdenticalResults(t *testing.T, want, got *core.ResultSet, workers int) {
	t.Helper()
	if got.Explored != want.Explored {
		t.Fatalf("workers=%d: Explored=%d, want %d", workers, got.Explored, want.Explored)
	}
	if len(got.Rules) != len(want.Rules) {
		t.Fatalf("workers=%d: %d rules, want %d", workers, len(got.Rules), len(want.Rules))
	}
	for i := range want.Rules {
		if got.Rules[i].Rule.Key() != want.Rules[i].Rule.Key() {
			t.Fatalf("workers=%d: rule %d key mismatch:\n got %q\nwant %q",
				workers, i, got.Rules[i].Rule.Key(), want.Rules[i].Rule.Key())
		}
		if !reflect.DeepEqual(got.Rules[i].Measures, want.Rules[i].Measures) {
			t.Fatalf("workers=%d: rule %d measures mismatch:\n got %+v\nwant %+v",
				workers, i, got.Rules[i].Measures, want.Rules[i].Measures)
		}
	}
}

// resultHash is the SHA-256 of everything a ResultSet pins: Explored,
// then per rule its key, support, the Float64bits of certainty, quality
// and utility, and its pattern-cover rows. Keys and covers are
// length-prefixed so no two result sets share an encoding.
func resultHash(rs *core.ResultSet) string {
	le := binary.LittleEndian
	buf := le.AppendUint64(nil, uint64(rs.Explored))
	for _, mr := range rs.Rules {
		key := mr.Rule.Key()
		buf = le.AppendUint64(buf, uint64(len(key)))
		buf = append(buf, key...)
		m := mr.Measures
		buf = le.AppendUint64(buf, uint64(m.Support))
		buf = le.AppendUint64(buf, math.Float64bits(m.Certainty))
		buf = le.AppendUint64(buf, math.Float64bits(m.Quality))
		buf = le.AppendUint64(buf, math.Float64bits(m.Utility))
		buf = le.AppendUint64(buf, uint64(len(m.PatternCover)))
		for _, row := range m.PatternCover {
			buf = le.AppendUint32(buf, uint32(row))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestParallelMineDeterminism runs EnuMiner and EnuMinerH3 on the covid
// and location benchmark generators at Parallelism 1, 2 and 8 and
// requires every ResultSet to hash to the constant recorded from the
// serial walk of the retired row-at-a-time evaluator (DESIGN.md
// decision 23): the columnar engine and the level-synchronized merge
// must both reproduce that reference mine bit for bit. Under this
// exploration cap the two miners' walks coincide, so they share one
// constant per dataset.
func TestParallelMineDeterminism(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets gc fuse x*y + z into one rounding on arm64,
		// ppc64le, s390x and riscv64; amd64 fuses only math.FMA.
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		dataset       string
		input, master int
		want          string
	}{
		{"covid", 500, 600, "b10e98200aacbcfea5642eb1f1e26ffca0094e2ad17b5a7bf25478ddc579907b"},
		{"location", 400, 600, "ef444dc203bb735a069823460bb776316d41c7127177fe75cfd43d352ada2c97"},
	} {
		t.Run(tc.dataset, func(t *testing.T) {
			w, err := datagen.ByName(tc.dataset)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := w.Build(datagen.DefaultSpec(tc.input, tc.master, 1))
			if err != nil {
				t.Fatal(err)
			}
			errgen.Inject(ds.Input, errgen.Config{Rate: 0.08, Rng: rand.New(rand.NewSource(2))})
			for _, miner := range []struct {
				name string
				mk   func(Config) *Miner
			}{{"EnuMiner", New}, {"EnuMinerH3", NewH3}} {
				t.Run(miner.name, func(t *testing.T) {
					for _, workers := range []int{1, 2, 8} {
						p := &core.Problem{
							Input: ds.Input, Master: ds.Master, Match: ds.Match,
							Y: ds.Y, Ym: ds.Ym,
							SupportThreshold: ds.SupportThreshold,
							TopK:             20,
							Parallelism:      workers,
						}
						got, err := miner.mk(Config{MaxExplored: 4000}).Mine(p)
						if err != nil {
							t.Fatal(err)
						}
						if h := resultHash(got); h != tc.want {
							t.Errorf("workers=%d: result hash = %s, want %s (explored %d, %d rules)",
								workers, h, tc.want, got.Explored, len(got.Rules))
						}
					}
				})
			}
		})
	}
}

// TestParallelCapDeterminism places the MaxExplored cap at awkward
// positions (mid-node, mid-level, first candidate) and checks that Mine
// at 1, 2, 3 and 8 workers cuts off at exactly the candidate the serial
// oracle does, with an identical result.
func TestParallelCapDeterminism(t *testing.T) {
	p := plantedProblem(t, 400, 5)
	for _, capN := range []int{1, 7, 50, 333} {
		cfg := Config{MaxExplored: capN}
		base, _ := New(cfg).mineWith(p, 0)
		if base.Explored > capN {
			t.Fatalf("cap=%d: serial explored %d", capN, base.Explored)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			p.Parallelism = workers
			got, err := New(cfg).Mine(p)
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalResults(t, base, got, workers)
		}
	}
	p.Parallelism = 0
}

// TestParallelStatsMatchSerial asserts that the level walk, with its
// worker-shard stats merged back through Stats.Add, reports exactly the
// serial oracle's Explored count, rules and Evaluations / IndexBuilds /
// TuplesScanned totals at 1, 2, 3 and 8 workers.
func TestParallelStatsMatchSerial(t *testing.T) {
	p := plantedProblem(t, 300, 9)
	m := New(Config{})
	want, wantStats := m.mineWith(p, 0)
	if wantStats.Evaluations == 0 || wantStats.IndexBuilds == 0 {
		t.Fatalf("degenerate serial stats: %+v", wantStats)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, stats := m.mineWith(p, workers)
		assertIdenticalResults(t, want, got, workers)
		if stats != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
		}
	}
}
