package serve

import (
	"fmt"
	"sync"
	"time"
)

// JobSpec is the client-supplied description of one asynchronous mining
// job (POST /v1/jobs).
type JobSpec struct {
	// Method selects the miner: enuminer, enuminerh3, rlminer or ctane.
	Method string `json:"method"`
	// K is the rule budget; zero means the serving problem's budget.
	K int `json:"k,omitempty"`
	// Eta is the support threshold; zero means the serving problem's η_s.
	Eta int `json:"eta,omitempty"`
	// Steps is the RLMiner training budget; zero means the default.
	Steps int `json:"steps,omitempty"`
	// Seed drives the miner's randomness.
	Seed int64 `json:"seed,omitempty"`
	// Activate hot-swaps the serving rule set when the job succeeds.
	Activate bool `json:"activate,omitempty"`
}

// Job states: queued → running → done | failed; queued jobs still
// waiting when the daemon shuts down become cancelled.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobStatus is the externally visible snapshot of one job
// (GET /v1/jobs/{id}).
type JobStatus struct {
	ID         string  `json:"id"`
	Spec       JobSpec `json:"spec"`
	State      string  `json:"state"`
	Error      string  `json:"error,omitempty"`
	Rules      int     `json:"rules,omitempty"`
	Explored   int     `json:"explored,omitempty"`
	DurationMS int64   `json:"duration_ms,omitempty"`
	// Step and TotalSteps report training progress for rlminer jobs
	// (zero for other methods).
	Step       int `json:"step,omitempty"`
	TotalSteps int `json:"total_steps,omitempty"`
	// Resumed marks a job recovered from an on-disk checkpoint after a
	// daemon restart.
	Resumed bool `json:"resumed,omitempty"`
	// ActivatedVersion is the rule-set version this job installed, when
	// Spec.Activate was set and the job succeeded.
	ActivatedVersion int64 `json:"activated_version,omitempty"`
}

// job is the manager's internal record. id, spec, ckBase and resumed
// are immutable after submit; mu guards every mutable field, and
// snapshots copy under the lock.
type job struct {
	mu        sync.Mutex
	id        string
	spec      JobSpec
	ckBase    string    // base name of the job's checkpoint/manifest files
	resumed   bool      // recovered from a checkpoint at daemon startup
	state     string    // guarded by mu
	err       string    // guarded by mu
	rules     int       // guarded by mu
	explored  int       // guarded by mu
	step      int       // guarded by mu; rlminer training progress
	total     int       // guarded by mu; rlminer training budget
	started   time.Time // guarded by mu
	finished  time.Time // guarded by mu
	activated int64     // guarded by mu
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:               j.id,
		Spec:             j.spec,
		State:            j.state,
		Error:            j.err,
		Rules:            j.rules,
		Explored:         j.explored,
		Step:             j.step,
		TotalSteps:       j.total,
		Resumed:          j.resumed,
		ActivatedVersion: j.activated,
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.DurationMS = end.Sub(j.started).Milliseconds()
	}
	return st
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *job) setDone(rules, explored int, activated int64) {
	j.mu.Lock()
	j.state = JobDone
	j.rules = rules
	j.explored = explored
	j.activated = activated
	j.finished = time.Now()
	j.mu.Unlock()
}

func (j *job) setFailed(err error) {
	j.mu.Lock()
	j.state = JobFailed
	j.err = err.Error()
	j.finished = time.Now()
	j.mu.Unlock()
}

func (j *job) setCancelled() {
	j.mu.Lock()
	j.state = JobCancelled
	j.finished = time.Now()
	j.mu.Unlock()
}

// setProgress records rlminer training progress; it has the
// rlminer.Config.Progress signature.
func (j *job) setProgress(step, total int) {
	j.mu.Lock()
	j.step = step
	j.total = total
	j.mu.Unlock()
}

// jobManager runs mining jobs on a bounded worker pool with a bounded
// submission queue. Submissions beyond the queue capacity are rejected
// (the HTTP layer maps that to 429), and shutdown drains: running jobs
// finish, still-queued jobs are cancelled.
type jobManager struct {
	mu     sync.Mutex
	jobs   map[string]*job // guarded by mu
	order  []string        // guarded by mu; insertion order for listing
	queue  chan *job
	wg     sync.WaitGroup
	nextID int  // guarded by mu
	closed bool // guarded by mu

	queued  int // guarded by mu; jobs accepted but not yet started
	running int // guarded by mu
}

var errJobQueueFull = fmt.Errorf("job queue full")
var errShuttingDown = fmt.Errorf("server shutting down")

func newJobManager(workers, depth int, run func(*job)) *jobManager {
	m := &jobManager{
		jobs:  make(map[string]*job),
		queue: make(chan *job, depth),
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker(run)
	}
	return m
}

func (m *jobManager) worker(run func(*job)) {
	defer m.wg.Done()
	for j := range m.queue {
		m.mu.Lock()
		closed := m.closed
		m.queued--
		if !closed {
			m.running++
		}
		m.mu.Unlock()
		if closed {
			j.setCancelled()
			continue
		}
		m.runOne(run, j)
		m.mu.Lock()
		m.running--
		m.mu.Unlock()
	}
}

// runOne is the worker's last line of defence: a run function that
// panics must not kill the worker goroutine — that would shrink the
// pool until the daemon silently stops executing jobs. The panic is
// converted into a job failure and the worker keeps serving.
func (m *jobManager) runOne(run func(*job), j *job) {
	defer func() {
		if r := recover(); r != nil {
			j.setFailed(fmt.Errorf("job panicked: %v", r))
		}
	}()
	run(j)
}

// submit enqueues a job, returning errJobQueueFull or errShuttingDown
// when it cannot be accepted.
func (m *jobManager) submit(spec JobSpec) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errShuttingDown
	}
	m.nextID++
	id := fmt.Sprintf("job-%d", m.nextID)
	j := &job{id: id, spec: spec, ckBase: id, state: JobQueued}
	select {
	case m.queue <- j:
	default:
		m.nextID--
		return nil, errJobQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.queued++
	return j, nil
}

// reserveIDs raises the ID counter past n so freshly submitted jobs
// never collide with IDs recovered from a previous process's
// checkpoints.
func (m *jobManager) reserveIDs(n int) {
	m.mu.Lock()
	if n > m.nextID {
		m.nextID = n
	}
	m.mu.Unlock()
}

// resubmit enqueues a job recovered from an on-disk checkpoint after a
// restart, keeping its original ID and checkpoint base name so a
// further crash resumes from the same files.
func (m *jobManager) resubmit(id, ckBase string, spec JobSpec) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errShuttingDown
	}
	if _, ok := m.jobs[id]; ok {
		return nil, fmt.Errorf("job %s already exists", id)
	}
	j := &job{id: id, spec: spec, ckBase: ckBase, resumed: true, state: JobQueued}
	select {
	case m.queue <- j:
	default:
		return nil, errJobQueueFull
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.queued++
	return j, nil
}

func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

func (m *jobManager) list() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

func (m *jobManager) depths() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.running
}

// shutdown stops accepting jobs, cancels the still-queued ones and waits
// for running jobs to finish (in-flight drain). It returns early with
// the context's error if the deadline passes first; the workers keep
// draining in the background in that case.
func (m *jobManager) shutdown(done <-chan struct{}) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-done:
		return fmt.Errorf("serve: shutdown deadline passed with jobs still draining")
	}
}
