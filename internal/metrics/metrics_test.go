package metrics

import (
	"math"
	"math/rand"
	"testing"

	"erminer/internal/relation"
)

func TestWeightedPerfect(t *testing.T) {
	truth := []int32{0, 0, 1, 1, 2}
	got := Weighted(truth, truth)
	if got.Precision != 1 || got.Recall != 1 || got.F1 != 1 {
		t.Errorf("perfect predictions scored %+v", got)
	}
}

// TestWeightedDeterministic calls Weighted repeatedly on one input with
// many classes of uneven support: every call must return the same bits,
// whatever order the classes are met in.
func TestWeightedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pred, truth := make([]int32, 2048), make([]int32, 2048)
	for i := range truth {
		truth[i] = int32(rng.Intn(1 + rng.Intn(60)))
		switch rng.Intn(4) {
		case 0:
			pred[i] = relation.Null
		case 1:
			pred[i] = int32(rng.Intn(70))
		default:
			pred[i] = truth[i]
		}
	}
	want := Weighted(pred, truth)
	for i := 0; i < 200; i++ {
		got := Weighted(pred, truth)
		for _, c := range [][2]float64{{got.Precision, want.Precision}, {got.Recall, want.Recall}, {got.F1, want.F1}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				t.Fatalf("call %d: %+v, first call %+v", i, got, want)
			}
		}
	}
}

func TestWeightedNoPredictions(t *testing.T) {
	truth := []int32{0, 1, 2}
	pred := []int32{relation.Null, relation.Null, relation.Null}
	got := Weighted(pred, truth)
	if got.Precision != 0 || got.Recall != 0 || got.F1 != 0 {
		t.Errorf("empty predictions scored %+v", got)
	}
}

// TestWeightedHandComputed verifies the §V-A2 formulas on a worked
// example with two classes of different sizes.
func TestWeightedHandComputed(t *testing.T) {
	// Class 0: 4 truth tuples; class 1: 2 truth tuples.
	truth := []int32{0, 0, 0, 0, 1, 1}
	// Predictions: three 0s (two correct, one on a class-1 tuple), one 1
	// (correct), two uncovered.
	pred := []int32{0, 0, relation.Null, relation.Null, 0, 1}
	// Class 0: P = 2/3, R = 2/4. Class 1: P = 1/1, R = 1/2.
	// Weights: 4 and 2 (truth counts), total 6.
	p0, r0 := 2.0/3.0, 0.5
	f0 := 2 * p0 * r0 / (p0 + r0)
	p1, r1 := 1.0, 0.5
	f1 := 2 * p1 * r1 / (p1 + r1)
	wantP := (4*p0 + 2*p1) / 6
	wantR := (4*r0 + 2*r1) / 6
	wantF := (4*f0 + 2*f1) / 6

	got := Weighted(pred, truth)
	if math.Abs(got.Precision-wantP) > 1e-12 {
		t.Errorf("P = %g, want %g", got.Precision, wantP)
	}
	if math.Abs(got.Recall-wantR) > 1e-12 {
		t.Errorf("R = %g, want %g", got.Recall, wantR)
	}
	if math.Abs(got.F1-wantF) > 1e-12 {
		t.Errorf("F1 = %g, want %g", got.F1, wantF)
	}
}

func TestWeightedIgnoresPredictionOnlyClasses(t *testing.T) {
	truth := []int32{0, 0}
	pred := []int32{0, 7} // class 7 never appears in truth
	got := Weighted(pred, truth)
	// Class 0: P = 1, R = 1/2. Class 7 carries no weight.
	if math.Abs(got.Precision-1) > 1e-12 {
		t.Errorf("P = %g, want 1", got.Precision)
	}
	if math.Abs(got.Recall-0.5) > 1e-12 {
		t.Errorf("R = %g, want 0.5", got.Recall)
	}
}

func TestWeightedNullTruthExcluded(t *testing.T) {
	// Tuples whose truth is Null carry no class weight.
	truth := []int32{relation.Null, 1}
	pred := []int32{1, 1}
	got := Weighted(pred, truth)
	// Class 1: predN = 2, tp = 1 → P = 0.5; R = 1/1.
	if math.Abs(got.Precision-0.5) > 1e-12 || got.Recall != 1 {
		t.Errorf("got %+v", got)
	}
}

func TestWeightedLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Weighted([]int32{1}, []int32{1, 2})
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd(nil)
	if m != 0 || s != 0 {
		t.Errorf("empty MeanStd = %g, %g", m, s)
	}
	m, s = MeanStd([]float64{2, 2, 2})
	if m != 2 || s != 0 {
		t.Errorf("constant MeanStd = %g, %g", m, s)
	}
	m, s = MeanStd([]float64{1, 3})
	if m != 2 || s != 1 {
		t.Errorf("MeanStd([1,3]) = %g, %g, want 2, 1", m, s)
	}
}

func TestSummarise(t *testing.T) {
	runs := []PRF{
		{Precision: 0.8, Recall: 0.6, F1: 0.7},
		{Precision: 0.6, Recall: 0.8, F1: 0.7},
	}
	s := Summarise(runs)
	if math.Abs(s.Precision-0.7) > 1e-12 || math.Abs(s.Recall-0.7) > 1e-12 {
		t.Errorf("means = %+v", s)
	}
	if math.Abs(s.PrecisionStd-0.1) > 1e-12 {
		t.Errorf("precision std = %g, want 0.1", s.PrecisionStd)
	}
	if s.F1Std != 0 {
		t.Errorf("F1 std = %g, want 0", s.F1Std)
	}
}
