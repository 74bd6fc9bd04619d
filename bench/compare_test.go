package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := func(m float64) []float64 {
		return []float64{m * 0.99, m, m * 1.01, m * 0.995, m * 1.005}
	}
	for _, c := range []struct {
		name       string
		base, head []float64
		bound      float64
		higher     bool
		want       verdict
	}{
		{"same", steady(10), steady(10), 0.1, false, unchanged},
		{"slower past the bound", steady(10), steady(12), 0.1, false, regressed},
		{"slower within the bound", steady(10), steady(10.5), 0.1, false, unchanged},
		{"faster past the bound", steady(10), steady(8), 0.1, false, improved},
		{"faster within the bound", steady(10), steady(9.5), 0.1, false, unchanged},
		{"higher is better", steady(10), steady(9), 0.05, true, regressed},
		{"noisy", []float64{5, 10, 15, 20, 25}, []float64{5, 10, 15, 20, 25}, 0.1, false, unresolved},
		{"noisy but every run better", []float64{50, 100, 150, 200, 250}, []float64{5, 10, 15, 20, 25}, 0.1, false, improved},
		{"one run cannot show a spread", []float64{10}, []float64{10}, 0.1, false, unresolved},
		{"missing side", nil, steady(10), 0.1, false, unresolved},
	} {
		if got := judge(c.base, c.head, c.bound, c.higher); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportsEveryPair(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []specMetric{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "repair-explain"})
	runs := func(vals ...float64) *resultsFile {
		f := &resultsFile{}
		for i, v := range vals {
			f.Runs = append(f.Runs, record{Workload: "repair-explain", Seed: int64(i + 1),
				Metrics: map[string]measured{"latency_p50_ms": {Value: v, Unit: "ms"}}})
		}
		return f
	}
	var out bytes.Buffer
	if !compare(&out, spec, runs(10, 10.1, 9.9, 10), runs(13, 13.1, 12.9, 13)) {
		t.Errorf("a 30%% slowdown against a 10%% bound was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("output lacks the verdict:\n%s", out.String())
	}
}

// BENCHMARK.json declares what this program reports; the two must not
// drift.
func TestBenchmarkSpecMatchesCatalogue(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the program %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the program %s %s %s",
					kind, i, m.Name, m.Unit, m.Better, want[i].name, want[i].unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, m.Bound, setup)
		}
	}
}
