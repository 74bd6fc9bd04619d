package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is BENCHMARK.json at the repository root: the one place
// the workloads, the metrics and their regression bounds are declared.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark spec: %w", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// verdict is how a change moved one (metric, workload) pair.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares the head runs of one (metric, workload) pair with the
// base runs by their medians:
//
//   - unresolved: either side's spread (IQR ÷ median) exceeds the bound,
//     so a change within the bound cannot be told from noise, unless
//     every head run reads better than every base run (improved);
//   - regressed: the head median is worse by more than the bound;
//   - improved: the head median is better by more than the bound;
//   - unchanged otherwise.
func judge(base, head []float64, bound float64, higherBetter bool) verdict {
	if len(base) == 0 || len(head) == 0 {
		return unresolved
	}
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && sign*(h-b) < 0
		}
	}
	worse := sign * (median(head) - median(base)) / math.Abs(median(base))
	switch {
	case math.Max(spread(base), spread(head)) > bound:
		if allBetter {
			return improved
		}
		return unresolved
	case worse > bound:
		return regressed
	case -worse > bound:
		return improved
	}
	return unchanged
}

// compare prints a verdict for every end-to-end metric on every
// workload either file ran, and reports whether any regressed.
func compare(w io.Writer, spec *benchmarkSpec, base, head *resultsFile) bool {
	values := func(f *resultsFile) map[[2]string][]float64 {
		runs := append([]record(nil), f.Runs...)
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
		out := make(map[[2]string][]float64)
		for _, r := range runs {
			for _, m := range spec.EndToEnd {
				if v, ok := r.Metrics[m.Name]; ok {
					key := [2]string{r.Workload, m.Name}
					out[key] = append(out[key], v.Value)
				}
			}
		}
		return out
	}
	bv, hv := values(base), values(head)
	fmt.Fprintf(w, "base %s (%d runs) vs head %s (%d runs)\n", base.Commit, len(base.Runs), head.Commit, len(head.Runs))
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "base", "head", "change", "spread", "bound", "verdict")
	anyRegressed := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			key := [2]string{wl.Name, m.Name}
			b, h := bv[key], hv[key]
			if len(b) == 0 && len(h) == 0 {
				continue
			}
			v := judge(b, h, m.Bound, m.Better == "higher")
			anyRegressed = anyRegressed || v == regressed
			change := math.NaN()
			if len(b) > 0 && len(h) > 0 {
				change = (median(h) - median(b)) / math.Abs(median(b))
			}
			fmt.Fprintf(w, "%-16s %-18s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, median(b), median(h), 100*change,
				100*math.Max(spread(b), spread(h)), 100*m.Bound, v)
		}
	}
	return anyRegressed
}
