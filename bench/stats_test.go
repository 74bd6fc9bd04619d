package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {99, 50},
		{100, 90}, {630, 90}, {999, 90}, {5000, 90},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.n, p, c.want)
		}
		if p != 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("p%v of %d samples leaves %d beyond it, want at least %d", p, c.n, beyond(c.n, p), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", got)
	}
}

// Spreads must match Python's statistics.quantiles(n=4); the expected
// values below are what it prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be computable")
	}
	if s := spread([]float64{4}); !math.IsInf(s, 1) {
		t.Errorf("spread of one value = %v, want +Inf", s)
	}
	// statistics.median(1..10) is 5.5, as is the interquartile range.
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4, 1, 3, 2) = %v, want 2.5", m)
	}
}
