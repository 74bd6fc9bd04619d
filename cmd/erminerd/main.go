// Command erminerd is the online rule-serving and repair daemon: it
// loads (or mines) an editing-rule set for a dataset or CSV problem and
// serves it over HTTP.
//
// Endpoints:
//
//	POST /v1/repair        batch of tuples in → fixed cells + per-fix rule explanations out
//	POST /v1/validate      batch of tuples in → per-tuple consistent/violation/missing/uncovered
//	GET  /v1/rules         active rule set in the portable JSON wire format
//	PUT  /v1/rules         zero-downtime hot swap of the active rule set
//	PATCH /v1/data         apply a data delta (row appends + cell updates) with
//	                       incremental index patching and rule re-validation;
//	                       "remine": true enqueues an RLMiner-ft fine-tune job
//	POST /v1/jobs          submit an asynchronous mining job (enuminer, enuminerh3, rlminer, rlminer-ft, ctane)
//	GET  /v1/jobs[/{id}]   job states: queued → running → done | failed
//	GET  /healthz          liveness + active rule-set generation
//	GET  /metrics          plain-text counters incl. p50/p99 repair latency
//
// Start it on a benchmark dataset and mine an initial rule set:
//
//	erminerd -dataset covid -noise 0.1 -mine enuminerh3
//
// Or serve your own CSV problem with a previously exported rule file:
//
//	erminerd -input-csv shops.csv -master-csv directory.csv \
//	         -y postcode -ym postcode -rules rules.json
//
// Concurrent repair requests share one master-index cache, the request
// queue is bounded (429 under overload), every request carries a
// deadline, and SIGINT/SIGTERM drain in-flight work before exit.
//
// Cluster mode (ermcluster) scales the serving path horizontally. Start
// N ordinary daemons as workers, then front them with a coordinator:
//
//	erminerd -worker -addr :8081 -input-csv shops.csv -master-csv directory.csv -y postcode -ym postcode
//	erminerd -worker -addr :8082 -input-csv shops.csv -master-csv directory.csv -y postcode -ym postcode
//	erminerd -cluster-coordinator -addr :8080 -workers http://localhost:8081,http://localhost:8082
//
// The coordinator serves the same /v1/repair and /v1/validate API,
// hash-partitions each batch across the workers and merges the results
// byte-identically to a single node; PUT /v1/rules replicates a rule
// generation to every worker with a two-phase stage/activate push, and
// PATCH /v1/data replicates a data delta to the whole fleet and checks
// it converged on one data version and rule generation. It holds no
// data itself — workers own the master data and rules.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"erminer"
)

type options struct {
	addr      string
	dataset   string
	noise     float64
	seed      int64
	input     int
	master    int
	eta       int
	k         int
	parallel  int
	inputCSV  string
	masterCSV string
	y, ym     string
	match     string
	rulesFile string
	mine      string
	steps     int

	repairWorkers   int
	queueDepth      int
	timeout         time.Duration
	jobWorkers      int
	jobQueue        int
	maxBatch        int
	drainTimeout    time.Duration
	checkpointDir   string
	checkpointEvery time.Duration

	worker        bool
	coordinator   bool
	workers       string
	workerTimeout time.Duration
	retries       int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.dataset, "dataset", "covid", "benchmark dataset: adult, covid, nursery or location")
	flag.Float64Var(&o.noise, "noise", 0.10, "cell error-injection rate for the benchmark training corpus")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.input, "input", 0, "input size (0 = paper default; benchmark mode)")
	flag.IntVar(&o.master, "master", 0, "master size (0 = paper default; benchmark mode)")
	flag.IntVar(&o.eta, "eta", 0, "support threshold (0 = dataset default)")
	flag.IntVar(&o.k, "k", 50, "rule budget for mining jobs (top-K)")
	flag.IntVar(&o.parallel, "parallel", 0, "EnuMiner frontier workers for startup and job mines (0 = all CPUs)")
	flag.StringVar(&o.inputCSV, "input-csv", "", "input CSV path (enables CSV mode)")
	flag.StringVar(&o.masterCSV, "master-csv", "", "master CSV path (CSV mode)")
	flag.StringVar(&o.y, "y", "", "dependent input column (CSV mode)")
	flag.StringVar(&o.ym, "ym", "", "dependent master column (CSV mode)")
	flag.StringVar(&o.match, "match", "", "schema match as in1=ms1,in2=ms2 (CSV mode; empty = infer)")
	flag.StringVar(&o.rulesFile, "rules", "", "activate this exported rule file at startup")
	flag.StringVar(&o.mine, "mine", "", "mine an initial rule set at startup with this method (enuminer, enuminerh3, rlminer, ctane)")
	flag.IntVar(&o.steps, "steps", 5000, "RLMiner training steps for -mine and mining jobs")
	flag.IntVar(&o.repairWorkers, "repair-workers", 0, "concurrent repair/validate requests (0 = all CPUs)")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "bounded request queue; beyond it requests get 429 (0 = 64)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request deadline")
	flag.IntVar(&o.jobWorkers, "job-workers", 1, "mining job workers")
	flag.IntVar(&o.jobQueue, "job-queue", 16, "bounded mining-job queue; beyond it jobs get 429")
	flag.IntVar(&o.maxBatch, "max-batch", 0, "max tuples per repair/validate call (0 = 10000)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "graceful-shutdown drain budget")
	flag.StringVar(&o.checkpointDir, "checkpoint-dir", "", "directory for crash-safe rlminer job checkpoints; jobs interrupted by a crash resume on restart")
	flag.DurationVar(&o.checkpointEvery, "checkpoint-every", 0, "wall-clock period between job checkpoint writes (0 = 30s)")
	flag.BoolVar(&o.worker, "worker", false, "serve as an ermcluster worker (labels /healthz with the role; otherwise a normal daemon)")
	flag.BoolVar(&o.coordinator, "cluster-coordinator", false, "serve as an ermcluster coordinator fronting -workers (holds no data; most other flags are ignored)")
	flag.StringVar(&o.workers, "workers", "", "comma-separated worker base URLs for -cluster-coordinator")
	flag.DurationVar(&o.workerTimeout, "worker-timeout", 0, "coordinator per-worker dispatch attempt timeout (0 = 10s)")
	flag.IntVar(&o.retries, "retries", 0, "coordinator per-sub-batch retries before hedging to another worker (0 = 2, negative = none)")
	flag.Parse()

	err := func() error {
		if o.coordinator && o.worker {
			return fmt.Errorf("-cluster-coordinator and -worker are mutually exclusive")
		}
		if o.coordinator {
			return runCoordinator(o)
		}
		return run(o)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "erminerd:", err)
		os.Exit(1)
	}
}

func buildProblem(o options) (*erminer.Problem, error) {
	if o.inputCSV != "" {
		if o.masterCSV == "" || o.y == "" || o.ym == "" {
			return nil, fmt.Errorf("CSV mode needs -master-csv, -y and -ym")
		}
		var pairs map[string]string
		if o.match != "" {
			pairs = make(map[string]string)
			for _, kv := range strings.Split(o.match, ",") {
				in, ms, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("bad -match entry %q (want in=ms)", kv)
				}
				pairs[in] = ms
			}
		}
		return erminer.LoadCSVProblem(erminer.CSVSpec{
			InputPath:        o.inputCSV,
			MasterPath:       o.masterCSV,
			Y:                o.y,
			Ym:               o.ym,
			MatchPairs:       pairs,
			SupportThreshold: o.eta,
		})
	}
	ds, err := erminer.BuildDataset(o.dataset, erminer.DatasetSpec{
		InputSize:  o.input,
		MasterSize: o.master,
		Seed:       o.seed,
	})
	if err != nil {
		return nil, err
	}
	if o.noise > 0 {
		n := ds.InjectErrors(erminer.NoiseConfig{Rate: o.noise, Seed: o.seed + 1})
		log.Printf("injected %d cell errors at rate %.2f into the training corpus", n, o.noise)
	}
	return ds.Problem(o.eta), nil
}

func mineInitial(p *erminer.Problem, method string, steps int, seed int64) ([]erminer.MinedRule, error) {
	var m erminer.Miner
	switch strings.ToLower(method) {
	case "enuminer":
		m = erminer.NewEnuMiner(erminer.EnuMinerConfig{})
	case "enuminerh3":
		m = erminer.NewEnuMinerH3(erminer.EnuMinerConfig{})
	case "rlminer":
		m = erminer.NewRLMiner(erminer.RLMinerConfig{TrainSteps: steps, Seed: seed})
	case "ctane":
		m = erminer.NewCTANE(erminer.CTANEConfig{})
	default:
		return nil, fmt.Errorf("unknown -mine method %q", method)
	}
	start := time.Now()
	res, err := m.Mine(p)
	if err != nil {
		return nil, err
	}
	log.Printf("%s mined %d rules in %v (explored %d candidates)",
		m.Name(), len(res.Rules), time.Since(start).Round(time.Millisecond), res.Explored)
	return res.Rules, nil
}

// serveAndDrain owns the daemon lifecycle shared by both roles: listen
// (logging the bound address, so -addr :0 is scriptable), serve until a
// signal or listener error, then drain within the budget. shutdown is
// the role's own drain hook, called before the HTTP server's.
func serveAndDrain(o options, what string, handler http.Handler, shutdown func(done <-chan struct{}) error) error {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s", what, ln.Addr())
		errc <- httpSrv.Serve(ln)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("received %v; draining (budget %v)", sig, o.drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := shutdown(ctx.Done()); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("%s stopped", what)
	return nil
}

// runCoordinator is the -cluster-coordinator role: no problem, no
// rules, just the fan-out front door over the worker fleet.
func runCoordinator(o options) error {
	if o.workers == "" {
		return fmt.Errorf("-cluster-coordinator needs -workers")
	}
	var urls []string
	for _, u := range strings.Split(o.workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	coord, err := erminer.NewCoordinator(erminer.ClusterConfig{
		Workers:          urls,
		PerWorkerTimeout: o.workerTimeout,
		Retries:          o.retries,
		RequestTimeout:   o.timeout,
		MaxBatch:         o.maxBatch,
	})
	if err != nil {
		return err
	}
	log.Printf("coordinator fronting %d workers: %s", len(urls), strings.Join(urls, ", "))
	return serveAndDrain(o, "ermcluster coordinator", coord, coord.Shutdown)
}

func run(o options) error {
	p, err := buildProblem(o)
	if err != nil {
		return err
	}
	p.TopK = o.k
	p.Parallelism = o.parallel
	p.ShareIndexes()
	log.Printf("problem: input %d×%d, master %d×%d, |M|=%d, η_s=%d, workers=%d",
		p.Input.NumRows(), p.Input.Schema().Len(),
		p.Master.NumRows(), p.Master.Schema().Len(),
		p.Match.Size(), p.SupportThreshold, p.Workers())

	var rules []erminer.MinedRule
	switch {
	case o.rulesFile != "" && o.mine != "":
		return fmt.Errorf("-rules and -mine are mutually exclusive")
	case o.rulesFile != "":
		data, err := os.ReadFile(o.rulesFile)
		if err != nil {
			return err
		}
		rules, err = erminer.ImportRules(p, data)
		if err != nil {
			return err
		}
		log.Printf("activated %d rules from %s", len(rules), o.rulesFile)
	case o.mine != "":
		rules, err = mineInitial(p, o.mine, o.steps, o.seed)
		if err != nil {
			return err
		}
	default:
		log.Printf("starting with an empty rule set; POST /v1/jobs or PUT /v1/rules to activate one")
	}

	role := ""
	if o.worker {
		role = "worker"
	}
	srv, err := erminer.NewServer(p, rules, erminer.ServeConfig{
		RepairWorkers:   o.repairWorkers,
		QueueDepth:      o.queueDepth,
		RequestTimeout:  o.timeout,
		JobWorkers:      o.jobWorkers,
		JobQueue:        o.jobQueue,
		MaxBatch:        o.maxBatch,
		CheckpointDir:   o.checkpointDir,
		CheckpointEvery: o.checkpointEvery,
		Role:            role,
	})
	if err != nil {
		return err
	}
	if o.checkpointDir != "" {
		for _, j := range srv.Jobs() {
			if j.Resumed {
				log.Printf("recovered interrupted job %s (method %s) from %s", j.ID, j.Spec.Method, o.checkpointDir)
			}
		}
	}

	what := "erminerd"
	if o.worker {
		what = "erminerd worker"
	}
	return serveAndDrain(o, what, srv, srv.Shutdown)
}
