package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 over 300 samples is three samples' worth of noise.
const minBeyond = 10

// beyond returns how many of n sorted samples lie strictly beyond the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank position of the p-th percentile.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile is p90 when at least minBeyond samples lie beyond it,
// else the median, so a metric called "tail" never reports a percentile
// its sample cannot support. p99 is not used even where the sample
// allows it: over ten seeds on the reference host it repeated only
// within ±35%, wider than any regression bound.
func tailPercentile(n int) float64 {
	if beyond(n, 90) >= minBeyond {
		return 90
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median is the middle value of xs, or the mean of the two middle
// values of an even count, as Python's statistics.median computes it.
// It returns 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads here match ones computed from a
// results file with Python. ok is false below two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3), true
}

// spread is the interquartile range of xs as a share of its median:
// the run-to-run noise a difference between two medians must beat. It
// is +Inf when it cannot be computed (fewer than two values or a zero
// median), so an unmeasurable spread never passes for a small one.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
