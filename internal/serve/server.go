// Package serve is the online rule-serving and repair layer: a
// stdlib-only net/http daemon (cmd/erminerd) that holds one discovery
// problem's master data, serves repair and validation over arriving
// dirty tuples with the currently active rule set, mines new rule sets
// on an asynchronous bounded worker pool, and hot-swaps the active set
// with zero downtime.
//
// Concurrency design (DESIGN.md decision 12):
//
//   - The active rule set lives behind an atomic pointer; a swap is one
//     pointer store, and every request reads a consistent snapshot.
//   - Repair evaluation is dictionary-free (codes only), so concurrent
//     requests run lock-free and share the problem's IndexCache: the
//     master index of each rule is built exactly once across all
//     requests, workers and swaps.
//   - The shared value dictionaries are touched only when encoding
//     request tuples and rendering responses; a single RWMutex guards
//     them (short critical sections, never held during evaluation).
//   - Mining jobs run on a deep copy of the problem with a private
//     dictionary pool and index cache, so a long mine never contends
//     with the request path; mined rules cross back through the
//     portable JSON wire format, the same path PUT /v1/rules takes.
//   - A bounded worker pool plus bounded wait queue backs the repair
//     path; requests beyond the queue capacity get 429 immediately
//     rather than piling up, and each request carries a deadline.
package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"erminer/internal/cfd"
	"erminer/internal/core"
	"erminer/internal/enuminer"
	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/rlminer"
	"erminer/internal/rule"
	"erminer/internal/rulesio"
)

// Config tunes the daemon. The zero value is fully usable.
type Config struct {
	// RepairWorkers bounds concurrently executing repair/validate
	// requests. Zero means runtime.NumCPU().
	RepairWorkers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it
	// the daemon answers 429 immediately. Zero means 64.
	QueueDepth int
	// RequestTimeout is the per-request deadline, covering both queue
	// wait and evaluation. Zero means 30s.
	RequestTimeout time.Duration
	// JobWorkers is the mining worker-pool size. Zero means 1.
	JobWorkers int
	// JobQueue bounds accepted-but-not-started jobs; beyond it POST
	// /v1/jobs answers 429. Zero means 16.
	JobQueue int
	// MaxBatch bounds tuples per repair/validate call. Zero means 10000.
	MaxBatch int
	// MaxBody bounds request bodies in bytes. Zero means 32 MiB.
	MaxBody int64
	// CheckpointDir, when non-empty, makes rlminer jobs write crash-safe
	// training checkpoints (and a small spec manifest) there, and makes
	// New resume jobs a previous process left interrupted.
	CheckpointDir string
	// CheckpointEvery is the wall-clock period between checkpoint
	// writes. Zero means the rlminer default (30s).
	CheckpointEvery time.Duration
	// Role names this daemon's place in a topology ("worker" under an
	// ermcluster coordinator); it is reported in /healthz and changes no
	// behaviour — a worker is a full single-node daemon.
	Role string
}

func (c Config) repairWorkers() int {
	if c.RepairWorkers > 0 {
		return c.RepairWorkers
	}
	return runtime.NumCPU()
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 30 * time.Second
}

func (c Config) jobWorkers() int {
	if c.JobWorkers > 0 {
		return c.JobWorkers
	}
	return 1
}

func (c Config) jobQueue() int {
	if c.JobQueue > 0 {
		return c.JobQueue
	}
	return 16
}

func (c Config) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return 10000
}

func (c Config) maxBody() int64 {
	if c.MaxBody > 0 {
		return c.MaxBody
	}
	return 32 << 20
}

// ruleSet is one immutable generation of the active rules. Swaps replace
// the whole value behind the atomic pointer. etag is the generation's
// content hash — rulesio.Hash over the canonical wire export — which
// names the generation across processes: an ermcluster coordinator
// compares worker etags to detect replication skew.
type ruleSet struct {
	version int64
	etag    string
	rules   []core.MinedRule
	list    []*rule.Rule
}

// stagedRules is a generation parked by POST /v1/rules/stage, waiting
// for the matching activate — phase one of the cluster's two-phase
// rule push. It is already imported and content-addressed, so the
// activate is a pure pointer swap that cannot fail.
type stagedRules struct {
	etag  string
	rules []core.MinedRule
}

// Server is the rule-serving daemon. Build one with New, mount it as an
// http.Handler, and stop it with Shutdown.
type Server struct {
	// p's value dictionaries (its relation pool) are guarded by dictMu:
	// interning and rendering take the lock. Evaluation reads immutable
	// codes only and is lock-free by design (decision 12) — the one
	// accessor on that path carries a written ermvet suppression.
	p   *core.Problem
	cfg Config
	mux *http.ServeMux

	active  atomic.Pointer[ruleSet]
	version atomic.Int64

	// dictMu guards the shared value dictionaries (the problem's pool):
	// write-locked while encoding request tuples and importing rules
	// (both intern new values), read-locked while rendering values.
	// Evaluation itself is code-only and takes no lock.
	dictMu sync.RWMutex

	// workers is the repair worker-pool semaphore; waiters counts
	// requests queued for a slot (bounded by cfg.queueDepth()).
	workers chan struct{}
	waiters atomic.Int64

	// stagedMu guards the parked generation between the stage and
	// activate phases of a two-phase rule push.
	stagedMu sync.Mutex
	staged   *stagedRules // guarded by stagedMu

	// modelMu guards the retained value network: the SaveModel bytes of
	// the last successful rlminer job, which an rlminer-ft job
	// fine-tunes after a data patch instead of training from scratch.
	modelMu sync.Mutex
	model   []byte // guarded by modelMu

	jobs    *jobManager
	metrics *metrics
	closed  atomic.Bool

	// Test hooks (nil in production): holdRepair blocks a repair request
	// while it holds a worker slot; holdJob blocks a running job.
	holdRepair func()
	holdJob    func(id string)
}

// New builds a Server over the problem. The problem's master data,
// match and schemas define the serving contract; its input relation is
// the training corpus mining jobs run on. rules may be nil to start
// without an active rule set (requests are served, proposing no fixes,
// until a job or a PUT /v1/rules activates one).
func New(p *core.Problem, rules []core.MinedRule, cfg Config) (*Server, error) {
	if p == nil {
		return nil, fmt.Errorf("serve: nil problem")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.ShareIndexes()
	s := &Server{
		p:       p,
		cfg:     cfg,
		workers: make(chan struct{}, cfg.repairWorkers()),
		metrics: newMetrics(),
	}
	s.jobs = newJobManager(cfg.jobWorkers(), cfg.jobQueue(), s.runJob)
	etag, err := s.generationETag(rules)
	if err != nil {
		return nil, err
	}
	s.install(&ruleSet{version: s.version.Add(1), etag: etag, rules: rules, list: ruleList(rules)})
	s.routes()
	// Recovery runs last: recovered jobs start immediately, and one that
	// finishes fast (and activates) must never race the initial install.
	if cfg.CheckpointDir != "" {
		if err := s.recoverJobs(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Jobs returns a snapshot of every known job, in submission order.
func (s *Server) Jobs() []JobStatus { return s.jobs.list() }

func ruleList(rules []core.MinedRule) []*rule.Rule {
	out := make([]*rule.Rule, len(rules))
	for i, r := range rules {
		out[i] = r.Rule
	}
	return out
}

func (s *Server) install(rs *ruleSet) {
	s.active.Store(rs)
}

// rules returns the active rule-set snapshot (never nil).
func (s *Server) rules() *ruleSet {
	return s.active.Load()
}

// generationETag content-addresses a rule set: the hash of its
// canonical wire export. Canonicalising before hashing makes the id
// independent of client formatting, so every node that holds the same
// rules reports the same etag regardless of the bytes it was fed.
func (s *Server) generationETag(rules []core.MinedRule) (string, error) {
	s.dictMu.RLock()
	data, err := rulesio.Export(s.p, rules)
	s.dictMu.RUnlock()
	if err != nil {
		return "", err
	}
	return rulesio.Hash(data), nil
}

// importGeneration parses a wire-format rule file against the serving
// problem and returns the rules with their canonical generation etag.
func (s *Server) importGeneration(data []byte) ([]core.MinedRule, string, error) {
	s.dictMu.Lock()
	imported, err := rulesio.Import(s.p, data)
	s.dictMu.Unlock()
	if err != nil {
		return nil, "", err
	}
	etag, err := s.generationETag(imported)
	if err != nil {
		return nil, "", err
	}
	return imported, etag, nil
}

// SwapRules imports a wire-format rule file against the serving problem
// and atomically activates it, returning the new version and rule
// count. In-flight requests keep the snapshot they started with.
func (s *Server) SwapRules(data []byte) (version int64, count int, err error) {
	imported, etag, err := s.importGeneration(data)
	if err != nil {
		return 0, 0, err
	}
	rs := &ruleSet{version: s.version.Add(1), etag: etag, rules: imported, list: ruleList(imported)}
	s.install(rs)
	s.metrics.ruleSwaps.Add(1)
	return rs.version, len(imported), nil
}

// StageRules parks a generation without activating it: phase one of
// the cluster's two-phase rule push. The rules are fully imported and
// validated here, so the later activate cannot fail; the returned etag
// is the generation's content hash, which the coordinator requires to
// agree across every worker before it activates anywhere.
func (s *Server) StageRules(data []byte) (etag string, count int, err error) {
	imported, etag, err := s.importGeneration(data)
	if err != nil {
		return "", 0, err
	}
	s.stagedMu.Lock()
	s.staged = &stagedRules{etag: etag, rules: imported}
	s.stagedMu.Unlock()
	s.metrics.rulesStaged.Add(1)
	return etag, len(imported), nil
}

// ActivateStaged atomically installs the generation parked by
// StageRules. etag must name it exactly — activating "whatever is
// staged" would race concurrent stagers — and the parked set is
// consumed either way.
func (s *Server) ActivateStaged(etag string) (version int64, count int, err error) {
	s.stagedMu.Lock()
	st := s.staged
	s.staged = nil
	s.stagedMu.Unlock()
	if st == nil {
		return 0, 0, fmt.Errorf("serve: no staged rule set to activate")
	}
	if st.etag != etag {
		return 0, 0, fmt.Errorf("serve: staged generation is %s, not %s", st.etag, etag)
	}
	rs := &ruleSet{version: s.version.Add(1), etag: st.etag, rules: st.rules, list: ruleList(st.rules)}
	s.install(rs)
	s.metrics.ruleSwaps.Add(1)
	return rs.version, len(st.rules), nil
}

// RulesETag returns the active generation's content hash.
func (s *Server) RulesETag() string { return s.rules().etag }

// cloneProblem deep-copies the serving problem into a private
// dictionary pool and index cache, so a mining job shares no mutable
// state with the request path. Schemas and the match are immutable and
// shared; row data is re-interned from string values.
func (s *Server) cloneProblem() *core.Problem {
	s.dictMu.RLock()
	defer s.dictMu.RUnlock()
	pool := relation.NewPool()
	copyRel := func(src *relation.Relation) *relation.Relation {
		dst := relation.New(src.Schema(), pool)
		for row := 0; row < src.NumRows(); row++ {
			dst.AppendRow(src.RowStrings(row))
		}
		return dst
	}
	input := copyRel(s.p.Input)
	return &core.Problem{
		Input:            input,
		Master:           copyRel(s.p.Master),
		Match:            s.p.Match,
		Y:                s.p.Y,
		Ym:               s.p.Ym,
		SupportThreshold: s.p.SupportThreshold,
		TopK:             s.p.TopK,
		Parallelism:      s.p.Parallelism,
		IndexCache:       measure.NewIndexCache(),
		// The columnar store is bound to the cloned input: sharing the
		// serving problem's would index the wrong relation.
		Columns: measure.NewColumnIndex(input),
	}
}

// newMiner resolves a job spec to a miner instance.
func newMiner(spec JobSpec) (core.Miner, error) {
	switch spec.Method {
	case "enuminer":
		return enuminer.New(enuminer.Config{}), nil
	case "enuminerh3":
		return enuminer.NewH3(enuminer.Config{}), nil
	case "rlminer":
		return rlminer.New(rlminer.Config{TrainSteps: spec.Steps, Seed: spec.Seed}), nil
	case "rlminer-ft":
		return rlminer.New(rlminer.Config{FineTuneSteps: spec.Steps, Seed: spec.Seed}), nil
	case "ctane":
		return cfd.New(cfd.Config{}), nil
	default:
		return nil, fmt.Errorf("serve: unknown method %q (want enuminer, enuminerh3, rlminer, rlminer-ft or ctane)", spec.Method)
	}
}

// jobProblem prepares a job's isolated problem copy with its spec
// overrides applied.
func (s *Server) jobProblem(j *job) *core.Problem {
	p := s.cloneProblem()
	if j.spec.K > 0 {
		p.TopK = j.spec.K
	}
	if j.spec.Eta > 0 {
		p.SupportThreshold = j.spec.Eta
	}
	return p
}

// runJob executes one mining job on an isolated problem copy. On
// success the mined rules are exported to the wire format; when the job
// asked for activation they are re-imported against the serving problem
// and hot-swapped in — the exact path a PUT /v1/rules takes, so a job
// cannot corrupt serving state in any way a client upload couldn't.
func (s *Server) runJob(j *job) {
	// A panicking miner must fail its job, not the daemon: this recover
	// attributes the panic to the job and keeps the metrics honest (the
	// worker pool carries its own last-resort recover behind it).
	defer func() {
		if r := recover(); r != nil {
			j.setFailed(fmt.Errorf("job panicked: %v", r))
			s.metrics.jobsFailed.Add(1)
		}
	}()
	j.setRunning()
	if s.holdJob != nil {
		s.holdJob(j.id)
	}
	var p *core.Problem
	var res *core.ResultSet
	var err error
	if j.spec.Method == "rlminer" || j.spec.Method == "rlminer-ft" {
		p = s.jobProblem(j)
		res, err = s.runRLMinerJob(j, p)
	} else {
		var miner core.Miner
		if miner, err = newMiner(j.spec); err == nil {
			p = s.jobProblem(j)
			res, err = miner.Mine(p)
		}
	}
	if err != nil {
		j.setFailed(err)
		s.metrics.jobsFailed.Add(1)
		return
	}
	data, err := rulesio.Export(p, res.Rules)
	if err != nil {
		j.setFailed(err)
		s.metrics.jobsFailed.Add(1)
		return
	}
	var activated int64
	// An RLMiner-ft generation is threshold-gated: a fine-tune whose
	// rules degraded below η_s (or mined nothing) must not displace the
	// serving set, so the job completes with its rules exported but
	// nothing activated.
	if j.spec.Activate && (j.spec.Method != "rlminer-ft" || remineClears(res, p.SupportThreshold)) {
		v, _, err := s.SwapRules(data)
		if err != nil {
			j.setFailed(fmt.Errorf("mined %d rules but activation failed: %w", len(res.Rules), err))
			s.metrics.jobsFailed.Add(1)
			return
		}
		activated = v
	}
	j.setDone(len(res.Rules), res.Explored, data, activated)
	s.metrics.jobsDone.Add(1)
}

// acquire claims a repair worker slot, waiting in the bounded queue when
// all slots are busy. It returns a release func on success, or an HTTP
// status (429 queue full, 503 shutting down, 504 deadline) and error.
func (s *Server) acquire(done <-chan struct{}) (release func(), status int, err error) {
	if s.closed.Load() {
		return nil, http.StatusServiceUnavailable, errShuttingDown
	}
	select {
	case s.workers <- struct{}{}:
		return func() { <-s.workers }, 0, nil
	default:
	}
	if s.waiters.Add(1) > int64(s.cfg.queueDepth()) {
		s.waiters.Add(-1)
		s.metrics.rejectedTotal.Add(1)
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("serve: %d requests already queued", s.cfg.queueDepth())
	}
	s.metrics.queueDepth.Store(s.waiters.Load())
	defer func() {
		s.waiters.Add(-1)
		s.metrics.queueDepth.Store(s.waiters.Load())
	}()
	select {
	case s.workers <- struct{}{}:
		return func() { <-s.workers }, 0, nil
	case <-done:
		s.metrics.timeoutsTotal.Add(1)
		return nil, http.StatusGatewayTimeout, fmt.Errorf("serve: timed out waiting for a worker slot")
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsTotal.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops accepting new work and drains: running mining jobs
// finish, still-queued jobs are cancelled, and subsequent requests get
// 503. In-flight HTTP requests are the caller's to drain (the net/http
// server's Shutdown does that). done bounds the wait; when it fires
// first an error is returned and draining continues in the background.
func (s *Server) Shutdown(done <-chan struct{}) error {
	s.closed.Store(true)
	return s.jobs.shutdown(done)
}
