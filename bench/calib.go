package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"
)

// The host this benchmark runs on is shared: over a minute, code runs
// up to ±25% slower or faster as neighbours come and go. Every time the
// benchmark reports is therefore measured in reference-host units: it is
// scaled by the ratio of calibNominal to the time a fixed calibration
// kernel takes right before and after the measured segment. The kernel
// is standard-library code only, so no change to the repository can
// move it. Half of its time is allocation, hashing and JSON work, half
// a dependent chain of integer multiplies: on the reference host that
// mix tracked the drift of EnuMiner-H3 mines to within 6% over five-
// second windows, where either half alone left 15–17%.

// calibNominal is the calibration kernel's median time on the reference
// host (bench/README.md); it only fixes the unit, since commits are
// compared with each other, never with it.
const calibNominal = 12 * time.Millisecond

// calibReps is how many kernel runs one calibration takes the median of.
const calibReps = 3

// calibDoc is the kernel's fixed input: a batch of tuples shaped like a
// validation request.
type calibDoc struct {
	Tuples []map[string]string `json:"tuples"`
}

func newCalibDoc() *calibDoc {
	rng := rand.New(rand.NewSource(42))
	doc := &calibDoc{Tuples: make([]map[string]string, 1000)}
	for i := range doc.Tuples {
		t := make(map[string]string, 7)
		for c := 0; c < 7; c++ {
			t["column_"+strconv.Itoa(c)] = "value-" + strconv.Itoa(rng.Intn(40))
		}
		doc.Tuples[i] = t
	}
	return doc
}

// kernel encodes and decodes the document, counts its distinct
// (column, value) pairs, then runs the multiply chain.
func (d *calibDoc) kernel() (uint64, error) {
	data, err := json.Marshal(d)
	if err != nil {
		return 0, fmt.Errorf("calibration kernel: %w", err)
	}
	var back calibDoc
	if err := json.Unmarshal(data, &back); err != nil {
		return 0, fmt.Errorf("calibration kernel: %w", err)
	}
	seen := make(map[string]int)
	for _, t := range back.Tuples {
		for k, v := range t {
			seen[k+"="+v]++
		}
	}
	x := uint64(len(seen) + len(data))
	for i := 0; i < 4_500_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x, nil
}

// calibrator times the kernel around measured segments.
type calibrator struct {
	doc *calibDoc
	// times are the calibrations taken so far, in seconds.
	times []float64
}

func newCalibrator() *calibrator { return &calibrator{doc: newCalibDoc()} }

// measure runs the kernel calibReps times and returns the median time.
// It collects the heap first: the segment before may leave a collection
// due, and the kernel must time the host, not this process's garbage.
func (c *calibrator) measure() (time.Duration, error) {
	runtime.GC()
	ts := make([]float64, calibReps)
	for i := range ts {
		start := time.Now()
		if _, err := c.doc.kernel(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(start).Seconds()
	}
	m := median(ts)
	c.times = append(c.times, m)
	return time.Duration(m * float64(time.Second)), nil
}

// segments runs k measured segments, calibrating before the first and
// after each, and returns each segment's speed factor: calibNominal over
// the mean of the two calibrations around it. A segment's times
// multiplied by its factor, and its rates divided by it, are in
// reference-host units.
func (c *calibrator) segments(k int, run func(seg int) error) ([]float64, error) {
	before, err := c.measure()
	if err != nil {
		return nil, err
	}
	factors := make([]float64, k)
	for i := range factors {
		if err := run(i); err != nil {
			return nil, err
		}
		after, err := c.measure()
		if err != nil {
			return nil, err
		}
		factors[i] = calibNominal.Seconds() / ((before + after).Seconds() / 2)
		before = after
	}
	return factors, nil
}

// speed is the median host speed over the run's calibrations relative
// to the reference host (above 1 = faster), recorded with the results.
func (c *calibrator) speed() float64 {
	if len(c.times) == 0 {
		return 0
	}
	return calibNominal.Seconds() / median(c.times)
}
