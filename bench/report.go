package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// measured is one metric value with the number of samples behind it.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one run of one workload.
type result struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	metrics   map[string]measured
	problems  []string
	// speed is the host's median speed over the run relative to the
	// reference host (calib.go); 0 when the run did not calibrate.
	speed float64
}

func newResult(workload string, seed int64) *result {
	return &result{workload: workload, seed: seed, metrics: make(map[string]measured)}
}

// set records a catalogued metric; the unit comes from the catalogue.
func (r *result) set(name string, v float64, samples int) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("ermbench: metric " + name + " is not in the catalogue")
	}
	r.metrics[name] = measured{Value: v, Unit: def.unit, Samples: samples}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func lookupMetric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// complete fills every catalogued metric of the run's kind the run did
// not set with 0: that layer did no work on this workload.
func (r *result) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = measured{Value: 0, Unit: d.unit}
		}
	}
}

// resultLine is the last line a run prints: exactly these keys, and
// per metric exactly a value and a unit.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one human-readable line per metric,
// "workload metric value unit samples", then the result line.
func (r *result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		m := r.metrics[d.name]
		fmt.Fprintf(w, "%s %s %s %s %d\n", r.workload, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.Samples)
	}
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]lineValue)}
	for _, d := range defs {
		m := r.metrics[d.name]
		line.Metrics[d.name] = lineValue{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// record is one run in a results file.
type record struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Problems  []string            `json:"problems,omitempty"`
	HostSpeed float64             `json:"host_speed,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
}

func (r *result) record() record {
	return record{
		Workload: r.workload, Seed: r.seed, Correct: r.correct(),
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems, HostSpeed: r.speed, Metrics: r.metrics,
	}
}

// hostInfo stamps a results file with where it was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Commit  string   `json:"commit"`
	Host    hostInfo `json:"host"`
	Seconds float64  `json:"seconds"`
	Trace   bool     `json:"trace"`
	Runs    []record `json:"runs"`
}

func newResultsFile(seconds float64, trace bool) *resultsFile {
	return &resultsFile{
		Commit:  commitOf(),
		Host:    hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version()},
		Seconds: seconds,
		Trace:   trace,
	}
}

// commitOf is the checkout's git commit, or "unknown" outside a
// repository.
func commitOf() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (f *resultsFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading results: %w", err)
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &f, nil
}
