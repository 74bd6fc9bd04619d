// Package cluster is the horizontal scale-out layer of erminerd: a
// stateless coordinator that serves the same POST /v1/repair and
// /v1/validate batch API as a single daemon, hash-partitions each batch
// across N worker daemons, fans the sub-batches out over HTTP, and
// merges the sub-responses back in canonical input order — so a
// coordinator response is byte-identical to what one erminerd holding
// the whole batch would have produced.
//
// The merge is a byte router (splice.go): the workers already write
// canonical JSON with the encoder a single node uses, so the
// coordinator splices their elements together — tuples and results in
// batch order, fixes k-way merged by row — rewriting only each
// element's leading row number and summing the counters. One strict
// pass over each body type-checks every element against the response
// grammar; a body that breaks it is a 502, never relayed. Requests are
// decoded and errors are written through serve's codec (HTTPError,
// WriteJSON, DecodeBatch), so a coordinator's 400 is a single node's
// 400 byte for byte, tuple position included.
//
// Topology and failure semantics (DESIGN.md decision 17):
//
//   - Tuples are the scale dimension, rules are not: every worker holds
//     the full master data and the full rule set, and each tuple is
//     pinned to a worker by a content hash of its column=value pairs.
//     The coordinator itself holds no problem, no dictionaries and no
//     rules — it can be restarted, load-balanced or replicated freely.
//   - Rule-set generations are the replication unit. PUT /v1/rules on
//     the coordinator is a two-phase push: stage the wire-format file on
//     every worker (each answers the generation's content hash, which
//     must agree everywhere), then activate that exact hash on every
//     worker. A failed stage aborts before any worker activates.
//   - Each sub-batch dispatch carries a per-worker timeout and bounded
//     retries with exponential backoff; when the pinned worker stays
//     down, the sub-batch is hedged — re-dispatched to the next healthy
//     worker, which can serve it because rules and master data are
//     replicated, not sharded. Results stay byte-identical because the
//     merge order is the original tuple order, not arrival order.
//   - A background health checker polls worker /healthz, tracking
//     liveness and rule-generation skew, exported as ermcluster_*
//     metrics.
package cluster

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes the coordinator. Workers is required; every other field
// zero value is usable.
type Config struct {
	// Workers are the base URLs of the erminerd worker daemons, e.g.
	// "http://10.0.0.7:8080". At least one is required.
	Workers []string
	// PerWorkerTimeout bounds one dispatch attempt to one worker.
	// Zero means 10s.
	PerWorkerTimeout time.Duration
	// Retries is how many times a failed sub-batch is retried on its
	// pinned worker (with exponential backoff) before being re-dispatched
	// to a healthy peer. Zero means 2; negative means none.
	Retries int
	// RetryBackoff is the first retry's backoff, doubled per attempt.
	// Zero means 50ms.
	RetryBackoff time.Duration
	// RequestTimeout is the overall per-request deadline, covering every
	// retry and re-dispatch. Zero means 30s.
	RequestTimeout time.Duration
	// HealthInterval is the background health-check period. Zero means
	// 2s; negative disables the background checker (tests drive checks
	// explicitly).
	HealthInterval time.Duration
	// MaxBatch bounds tuples per repair/validate call, mirroring the
	// single-node daemon. Zero means 10000.
	MaxBatch int
	// Client overrides the HTTP client used for worker calls. Nil means
	// a private default whose Timeout is twice the per-worker timeout:
	// per-attempt deadlines come from request contexts, and the client
	// timeout is the belt-and-braces backstop should a context ever be
	// plumbed through without one.
	Client *http.Client
}

func (c Config) perWorkerTimeout() time.Duration {
	if c.PerWorkerTimeout > 0 {
		return c.PerWorkerTimeout
	}
	return 10 * time.Second
}

func (c Config) retries() int {
	switch {
	case c.Retries > 0:
		return c.Retries
	case c.Retries < 0:
		return 0
	}
	return 2
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 50 * time.Millisecond
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 30 * time.Second
}

func (c Config) healthInterval() time.Duration {
	if c.HealthInterval > 0 {
		return c.HealthInterval
	}
	if c.HealthInterval < 0 {
		return 0 // disabled
	}
	return 2 * time.Second
}

func (c Config) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return 10000
}

// Coordinator fans repair/validate batches out over the worker fleet
// and replicates rule-set generations to it. Build one with New, mount
// it as an http.Handler, stop it with Shutdown.
type Coordinator struct {
	cfg     Config
	workers []string // normalized base URLs; immutable after New
	client  *http.Client
	mux     *http.ServeMux
	reg     *registry
	metrics *metrics

	// generation counts successful coordinator-side rule pushes; it is
	// the version PUT /v1/rules answers (worker-local version counters
	// advance in lockstep but are not reported here).
	generation atomic.Int64

	// pushMu serializes rule pushes.
	pushMu sync.Mutex

	closed   atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	loopDone chan struct{}
}

// New builds a Coordinator over the worker fleet and starts its
// background health checker (unless cfg.HealthInterval is negative).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	workers := make([]string, len(cfg.Workers))
	for i, raw := range cfg.Workers {
		u, err := url.Parse(strings.TrimRight(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: worker %d: %q is not an absolute base URL", i, raw)
		}
		workers[i] = u.String()
	}
	client := cfg.Client
	if client == nil {
		// Context deadlines bind first; the explicit Timeout only fires
		// if a call path ever loses its context deadline.
		client = &http.Client{Timeout: 2 * cfg.perWorkerTimeout()}
	}
	c := &Coordinator{
		cfg:      cfg,
		workers:  workers,
		client:   client,
		reg:      newRegistry(workers),
		metrics:  newMetrics(len(workers)),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	c.routes()
	if iv := cfg.healthInterval(); iv > 0 {
		go c.healthLoop(iv)
	} else {
		close(c.loopDone)
	}
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.metrics.requestsTotal.Add(1)
	c.mux.ServeHTTP(w, r)
}

// Shutdown stops the background health checker and makes subsequent
// requests answer 503. In-flight HTTP requests are the caller's to
// drain (the net/http server's Shutdown does that). done bounds the
// wait for the checker to exit.
func (c *Coordinator) Shutdown(done <-chan struct{}) error {
	c.closed.Store(true)
	c.stopOnce.Do(func() { close(c.stop) })
	select {
	case <-c.loopDone:
		return nil
	case <-done:
		return fmt.Errorf("cluster: health checker did not stop in time")
	}
}

// healthLoop polls the fleet until Shutdown.
func (c *Coordinator) healthLoop(every time.Duration) {
	defer close(c.loopDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c.checkAll()
		case <-c.stop:
			return
		}
	}
}
