// Package metrics implements the evaluation criteria of paper §V-A2:
// weighted precision, recall and F-measure over the multi-class cell
// predictions produced by applying discovered editing rules, plus the
// mean ± standard deviation aggregation used for the repeated runs.
package metrics

import (
	"math"
	"slices"

	"erminer/internal/relation"
)

// PRF holds one precision/recall/F-measure triple.
type PRF struct {
	Precision, Recall, F1 float64
}

// Weighted computes the weighted precision/recall/F-measure of predictions
// against truths. Both slices are per-tuple dictionary codes of the
// dependent attribute; pred[i] == relation.Null means "no prediction for
// tuple i" (the rules did not cover it), which costs recall but not
// precision — this is what gives CTANE its characteristically low recall
// in Table III.
//
// Per §V-A2, the per-class metrics are weighted by the class's truth
// support |ŷ_l|:
//
//	Precision_w = Σ_l |ŷ_l|·P_l / Σ_l |ŷ_l|   (analogously for recall)
//
// and per-class F is the harmonic mean of the per-class P and R. The
// sums run over the classes in ascending code order, so equal inputs
// give equal bits.
func Weighted(pred, truth []int32) PRF {
	if len(pred) != len(truth) {
		panic("metrics: pred and truth length mismatch")
	}
	type counts struct {
		truthN int // |ŷ_l|
		predN  int // predictions of class l
		tp     int // correct predictions of class l
	}
	byClass := make(map[int32]*counts)
	class := func(c int32) *counts {
		cc := byClass[c]
		if cc == nil {
			cc = &counts{}
			byClass[c] = cc
		}
		return cc
	}
	for i := range truth {
		if truth[i] != relation.Null {
			class(truth[i]).truthN++
		}
		if pred[i] != relation.Null {
			class(pred[i]).predN++
			if pred[i] == truth[i] {
				class(pred[i]).tp++
			}
		}
	}

	classes := make([]int32, 0, len(byClass))
	for l := range byClass {
		classes = append(classes, l)
	}
	slices.Sort(classes)
	var sumW, sumP, sumR, sumF float64
	for _, l := range classes {
		c := byClass[l]
		if c.truthN == 0 {
			// A class that appears only in predictions carries no
			// truth weight.
			continue
		}
		w := float64(c.truthN)
		var p, r float64
		if c.predN > 0 {
			p = float64(c.tp) / float64(c.predN)
		}
		r = float64(c.tp) / float64(c.truthN)
		var f float64
		if p+r > 0 {
			f = 2 * p * r / (p + r)
		}
		sumW += w
		sumP += w * p
		sumR += w * r
		sumF += w * f
	}
	if sumW == 0 {
		return PRF{}
	}
	return PRF{Precision: sumP / sumW, Recall: sumR / sumW, F1: sumF / sumW}
}

// MeanStd returns the mean and (population) standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// Summary aggregates repeated PRF results into mean ± std per component.
type Summary struct {
	Precision, PrecisionStd float64
	Recall, RecallStd       float64
	F1, F1Std               float64
}

// Summarise computes the Summary of repeated runs.
func Summarise(runs []PRF) Summary {
	p := make([]float64, len(runs))
	r := make([]float64, len(runs))
	f := make([]float64, len(runs))
	for i, x := range runs {
		p[i], r[i], f[i] = x.Precision, x.Recall, x.F1
	}
	var s Summary
	s.Precision, s.PrecisionStd = MeanStd(p)
	s.Recall, s.RecallStd = MeanStd(r)
	s.F1, s.F1Std = MeanStd(f)
	return s
}
