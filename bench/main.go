// Command ermbench is the repository's benchmark. From a seed it
// generates the covid problem, drives the real erminerd binary (single
// node, under PATCH traffic, and as a coordinator over workers) and the
// miners, checks every output, and prints each end-to-end metric as
//
//	workload metric value unit samples
//
// followed by one JSON line with the run's verdict. A -trace 1 run
// prints the per-layer metrics instead, from replays of each workload
// through the layers' public functions. BENCHMARK.json at the
// repository root declares the workloads, the metrics and their
// regression bounds; README.md explains them.
//
// Run it through bench/run.sh from the repository root, which builds
// erminerd and this program first:
//
//	bash bench/run.sh -seed 1 -out base.json                 # every workload
//	bash bench/run.sh -workload repair-explain -seed 3       # one workload
//	bash bench/run.sh -workload validate-bulk -trace 1       # its per-layer numbers
//	bash bench/run.sh -repeat 5 -out head.json               # five seeds each
//	bash bench/run.sh -compare base.json head.json           # verdicts per metric
//	bash bench/run.sh -smoke                                 # ~2 s per workload, all checks
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// buildDir holds, relative to the repository root the benchmark runs
// from, everything a run leaves behind: the binaries run.sh builds, the
// Go build cache, scratch directories and span files.
const buildDir = ".bench_build"

// daemonBin is the erminerd binary run.sh builds.
const daemonBin = buildDir + "/erminerd"

// runEnv is the configuration of one workload run.
type runEnv struct {
	dir      string // the run's scratch directory, removed at exit
	workload string
	seed     int64
	seconds  float64
	smoke    bool
}

// setupReps is how many set-ups a run times for setup_s. A set-up
// takes milliseconds, so the median of several keeps one descheduled
// start from moving it.
func (e *runEnv) setupReps() int {
	if e.smoke {
		return 1
	}
	return 7
}

// writeSpans writes a traced run's spans as JSON lines to
// .bench_build/spans/<workload>-seed<n>.jsonl.
func (e *runEnv) writeSpans(spans []span) error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	return writeJSONLines(path, firstTraces(spans, spanFileCap))
}

type options struct {
	workload, out  string
	seed           int64
	seconds        float64
	trace, repeat  int
	smoke, compare bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run, or a comma-separated list (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; -repeat runs seeds seed..seed+repeat-1")
	flag.Float64Var(&o.seconds, "seconds", 18, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 = report the per-layer metrics from a traced replay instead of the end-to-end ones")
	flag.IntVar(&o.repeat, "repeat", 1, "runs per workload, each with the next seed")
	flag.StringVar(&o.out, "out", "", "write the runs to this results JSON file")
	flag.BoolVar(&o.smoke, "smoke", false, "every workload for ~2 s with one cold start, all checks on")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare base.json head.json")
	flag.Parse()
	if o.smoke {
		o.seconds = 2
	}

	// An interrupted benchmark stops its daemons before it goes.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopChildren()
		os.Exit(1)
	}()

	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ermbench:", err)
		code = 1
	}
	stopChildren()
	os.Exit(code)
}

func run(o options) (int, error) {
	if o.compare {
		return runCompare(o)
	}
	names := strings.Split(o.workload, ",")
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, err := findWorkload(n); err != nil {
			return 1, err
		}
	}
	if o.seconds <= 0 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		return 1, errors.New("-seconds must be positive, -repeat at least 1 and -trace 0 or 1")
	}
	if len(names) == 1 && o.repeat == 1 {
		return runOne(o, names[0])
	}
	return runChildren(o, names)
}

// runOne runs one workload in this process and prints its metrics.
func runOne(o options, name string) (int, error) {
	w, err := findWorkload(name)
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return 1, fmt.Errorf("creating the scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(buildDir, "run-"+name+"-")
	if err != nil {
		return 1, fmt.Errorf("creating the run directory: %w", err)
	}
	defer removeAll(dir)
	env := &runEnv{dir: dir, workload: name, seed: o.seed, seconds: o.seconds, smoke: o.smoke}

	var res *result
	switch w.kind {
	case kindServe:
		s, err := newServingRun(env, w)
		if err != nil {
			return 1, err
		}
		if o.trace == 1 {
			res, err = s.trace()
		} else {
			res, err = s.measure()
		}
		if err != nil {
			return 1, err
		}
	default:
		m, err := newMiningRun(env, w)
		if err != nil {
			return 1, err
		}
		if o.trace == 1 {
			res, err = m.trace()
		} else {
			res, err = m.measure()
		}
		if err != nil {
			return 1, err
		}
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	res.complete(defs)
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "ermbench: %s seed %d: %s\n", name, o.seed, p)
	}
	if err := res.print(os.Stdout, defs); err != nil {
		return 1, err
	}
	if o.out != "" {
		f := newResultsFile(o.seconds, o.trace == 1)
		f.Runs = append(f.Runs, res.record())
		if err := f.write(o.out); err != nil {
			return 1, err
		}
	}
	if !res.correct() {
		return 1, nil
	}
	return 0, nil
}

// runChildren runs every (workload, seed) pair in its own child
// process, forwards their metric lines, and merges their results.
func runChildren(o options, names []string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, fmt.Errorf("locating the ermbench binary: %w", err)
	}
	tmp, err := os.MkdirTemp(buildDir, "results-")
	if err != nil {
		return 1, fmt.Errorf("creating the results directory: %w", err)
	}
	defer removeAll(tmp)
	all := newResultsFile(o.seconds, o.trace == 1)
	code := 0
	for _, name := range names {
		for r := 0; r < o.repeat; r++ {
			seed := o.seed + int64(r)
			out := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, seed))
			args := []string{"-workload", name,
				"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace), "-out", out}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			runErr := cmd.Run()
			forwardLines(&stdout)
			f, err := readResults(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ermbench: %s seed %d failed: %v\n", name, seed, runErr)
				code = 1
				continue
			}
			all.Runs = append(all.Runs, f.Runs...)
			if runErr != nil {
				code = 1
			}
		}
	}
	if o.out != "" {
		if err := all.write(o.out); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// removeAll deletes a scratch directory, reporting a failure on
// standard error: a leftover directory under .bench_build harms no run.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "ermbench:", err)
	}
}

// forwardLines copies a child's metric lines to stdout, dropping its
// final JSON line (the results file carries the same data).
func forwardLines(stdout *bytes.Buffer) {
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
}

func runCompare(o options) (int, error) {
	if flag.NArg() != 2 {
		return 1, errors.New("usage: -compare base.json head.json")
	}
	spec, err := readSpec(".")
	if err != nil {
		return 1, err
	}
	base, err := readResults(flag.Arg(0))
	if err != nil {
		return 1, err
	}
	head, err := readResults(flag.Arg(1))
	if err != nil {
		return 1, err
	}
	if compare(os.Stdout, spec, base, head) {
		return 1, nil
	}
	return 0, nil
}
