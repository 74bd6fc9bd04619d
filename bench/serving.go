package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"erminer/internal/metrics"
	"erminer/internal/serve"
)

// servingRun drives one serving workload against real erminerd
// processes.
type servingRun struct {
	env  *runEnv
	w    workload
	in   *inputs
	pool []batch
	// expect holds the replay's response bytes for each pool batch on
	// the unpatched data. Every 200 body must equal them, except on
	// repair-patch once patches have landed.
	expect  [][]byte
	clients []*http.Client
	fleet   *fleet

	mu       sync.Mutex
	failed   int      // guarded by mu
	problems []string // guarded by mu
	lastBody [][]byte // guarded by mu; the latest 200 body per pool batch

	patchMu   sync.Mutex
	patchCond *sync.Cond
	patchDone int            // guarded by patchMu
	patches   []patchOutcome // guarded by patchMu; indexed by patch number
}

// patchOutcome is what the daemon answered to one PATCH.
type patchOutcome struct {
	status int
	resp   serve.DataPatchResponse
}

func newServingRun(env *runEnv, w workload) (*servingRun, error) {
	holdOut := 0
	if w.patchEvery > 0 {
		holdOut = heldOutMaster
	}
	in, err := makeInputs(env.dir, env.seed, holdOut)
	if err != nil {
		return nil, err
	}
	pool, err := in.pool(env.seed, w)
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(in)
	if err != nil {
		return nil, err
	}
	s := &servingRun{env: env, w: w, in: in, pool: pool, lastBody: make([][]byte, len(pool))}
	s.patchCond = sync.NewCond(&s.patchMu)
	for _, b := range pool {
		out, _, err := rp.serveBatch(w.path, b.body, nil, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("replaying the request pool: %w", err)
		}
		s.expect = append(s.expect, out)
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		s.clients = append(s.clients, newClient())
	}
	return s, nil
}

func (s *servingRun) problem(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed++
	if len(s.problems) < 20 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// isPatch reports whether operation g of the run is a PATCH. Operations
// are numbered across all phases of a run, so PATCH g/patchEvery is
// always the next delta of one ordered sequence.
func (s *servingRun) isPatch(g int) bool {
	return s.w.patchEvery > 0 && g%s.w.patchEvery == s.w.patchEvery-1
}

// send issues operation g of the run and reports whether it succeeded
// with a correct body.
func (s *servingRun) send(conn, g int) bool {
	if s.isPatch(g) {
		return s.sendPatch(conn, g/s.w.patchEvery)
	}
	b := g % len(s.pool)
	status, body, err := post(s.clients[conn], http.MethodPost, s.fleet.front+s.w.path, s.pool[b].body)
	switch {
	case err != nil:
		s.problem("%s: %v", s.w.path, err)
		return false
	case status != http.StatusOK:
		s.problem("%s answered %d: %.200s", s.w.path, status, body)
		return false
	}
	if s.w.patchEvery == 0 {
		if !bytes.Equal(body, s.expect[b]) {
			s.problem("%s batch %d: the body differs from the replay's", s.w.path, b)
			return false
		}
	} else if !bytes.HasPrefix(body, []byte(`{"tuples":[`)) || !bytes.HasSuffix(body, []byte("}\n")) {
		s.problem("%s batch %d: malformed body %.200s", s.w.path, b, body)
		return false
	}
	s.mu.Lock()
	s.lastBody[b] = body
	s.mu.Unlock()
	return true
}

// sendPatch sends PATCH number k once PATCH k-1 has been answered, so
// the daemon applies them in the order the replay does.
func (s *servingRun) sendPatch(conn, k int) bool {
	s.patchMu.Lock()
	for s.patchDone < k {
		//ermvet:ignore lockorder Cond.Wait releases patchMu while it waits; the lock only guards patchDone
		s.patchCond.Wait()
	}
	s.patchMu.Unlock()
	out := patchOutcome{}
	defer func() {
		s.patchMu.Lock()
		s.patches = append(s.patches, out)
		s.patchDone = k + 1
		s.patchCond.Broadcast()
		s.patchMu.Unlock()
	}()
	body, err := json.Marshal(s.in.patchRequest(s.env.seed, k))
	if err != nil {
		s.problem("encoding PATCH %d: %v", k, err)
		return false
	}
	status, resp, err := post(s.clients[conn], http.MethodPatch, s.fleet.front+serve.PathData, body)
	out.status = status
	if err != nil {
		s.problem("PATCH %d: %v", k, err)
		return false
	}
	if status != http.StatusOK {
		s.problem("PATCH %d answered %d: %.200s", k, status, resp)
		return false
	}
	if err := json.Unmarshal(resp, &out.resp); err != nil {
		s.problem("PATCH %d: %v", k, err)
		return false
	}
	return true
}

// coldStart starts the fleet and times it from exec to the first 200
// answer to a pool request.
func (s *servingRun) coldStart() (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(daemonBin, s.in.daemonArgs(), s.w.clusterWorkers)
	if err != nil {
		return nil, 0, err
	}
	status, body, err := post(s.clients[0], http.MethodPost, f.front+s.w.path, s.pool[0].body)
	d := time.Since(start)
	switch {
	case err != nil:
		f.stop()
		return nil, 0, fmt.Errorf("first request: %w", err)
	case status != http.StatusOK:
		f.stop()
		return nil, 0, fmt.Errorf("first request answered %d: %.200s", status, body)
	case !bytes.Equal(body, s.expect[0]):
		s.problem("first request after a cold start: the body differs from the replay's")
	}
	return f, d, nil
}

// A run is one round per second, each an open loop at the frozen rate
// for openShare of the second and a closed loop for the rest, with a
// host-speed calibration (calib.go) between rounds. The host drifts
// over seconds, so interleaving lets both metrics average over the
// whole run instead of each owning one stretch of it.
const openShare = 0.7

func rounds(seconds float64) int { return max(1, int(math.Round(seconds))) }

// measure runs the untraced workload: cold starts, then rounds of the
// open loop and the closed loop, then the end checks.
func (s *servingRun) measure() (*result, error) {
	res := newResult(s.w.name, s.env.seed)
	cal := newCalibrator()
	reps := s.env.setupReps()
	setups := make([]float64, reps)
	speeds, err := cal.segments(reps, func(k int) error {
		f, d, err := s.coldStart()
		if err != nil {
			return err
		}
		setups[k] = d.Seconds()
		if k < reps-1 {
			f.stop()
		} else {
			s.fleet = f
		}
		return nil
	})
	if s.fleet != nil {
		defer s.fleet.stop()
	}
	if err != nil {
		return nil, err
	}
	for k := range setups {
		setups[k] *= speeds[k]
	}
	res.set("setup_s", median(setups), len(setups))

	// A round's open-loop latencies and CPU time are multiplied by its
	// speed factor, and so is its closed-loop time, which divides the
	// closed loop's rate by it.
	perOpen := int(s.w.rate * openShare)
	closedDur := time.Duration((1 - openShare) * float64(time.Second))
	n := rounds(s.env.seconds)
	roundLat := make([][]float64, n)
	roundCPU := make([]float64, n)
	closed := make([]time.Duration, n)
	closedOK := make([]int, n)
	g, opened, okTotal, failTotal := 0, 0, 0, 0
	speeds, err = cal.segments(n, func(k int) error {
		base := g
		cpu0, err := s.fleet.cpu()
		if err != nil {
			return err
		}
		samples := openLoop(wallClock{}, schedule(s.w.rate, perOpen), len(s.clients), func(c, i int) bool {
			return s.send(c, base+i)
		})
		cpu1, err := s.fleet.cpu()
		if err != nil {
			return err
		}
		roundCPU[k] = ms(cpu1 - cpu0)
		for i, sm := range samples {
			if !s.isPatch(base + i) {
				roundLat[k] = append(roundLat[k], ms(sm.latency))
			}
		}
		g += perOpen
		opened += perOpen
		next := g
		okN, failN, el := closedLoop(wallClock{}, closedDur, len(s.clients), func(c, i int) bool {
			return s.send(c, next+i)
		})
		g += okN + failN
		okTotal, failTotal, closed[k], closedOK[k] = okTotal+okN, failTotal+failN, el, okN
		return nil
	})
	if err != nil {
		return nil, err
	}
	var lat, rates []float64
	var cpu float64
	for k, f := range speeds {
		for _, l := range roundLat[k] {
			lat = append(lat, l*f)
		}
		cpu += roundCPU[k] * f
		rates = append(rates, float64(closedOK[k])/(closed[k].Seconds()*f))
	}
	res.set("latency_p50_ms", percentile(lat, 50), len(lat))
	res.set("latency_tail_ms", percentile(lat, tailPercentile(len(lat))), len(lat))
	res.set("cpu_ms_per_op", cpu/float64(opened), opened)
	// The median round: a neighbour's burst that halves one round's
	// closed loop should not move the run's capacity.
	res.set("throughput_per_s", median(rates), okTotal)
	res.attempted = reps + opened + okTotal + failTotal
	rss, err := s.fleet.peakRSS()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, len(s.fleet.all()))
	res.speed = cal.speed()

	if s.w.patchEvery > 0 {
		if err := s.checkPatches(nil); err != nil {
			return nil, err
		}
		res.attempted++
	}
	q, err := s.quality()
	if err != nil {
		return nil, err
	}
	res.set("quality_f1", q, len(s.pool)*s.w.batch)
	s.finish(res)
	return res, nil
}

// finish folds the run's failures and problems into the result.
func (s *servingRun) finish(res *result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res.failed += s.failed
	res.problems = append(res.problems, s.problems...)
}

// checkPatches replays every PATCH the daemon answered, in order, and
// requires each answer to match the replay's data version and rule
// generation; then it requires a probe batch's response to equal the
// replay's on the patched data. tr, when set, records the replayed
// patches' spans.
func (s *servingRun) checkPatches(tr *tracer) error {
	s.patchMu.Lock()
	outcomes := append([]patchOutcome(nil), s.patches...)
	s.patchMu.Unlock()
	rp, err := newReplayer(s.in)
	if err != nil {
		return err
	}
	var prev int64
	for k, out := range outcomes {
		want, err := rp.patch(s.in.patchRequest(s.env.seed, k), tr, int64(k+1))
		if err != nil {
			return fmt.Errorf("replaying PATCH %d: %w", k, err)
		}
		got := out.resp
		switch {
		case out.status != http.StatusOK:
			// Already counted as failed when it was sent.
		case got.DataVersion <= prev:
			s.problem("PATCH %d: data_version %d does not increase on %d", k, got.DataVersion, prev)
		case got.DataVersion != want.dataVersion || got.RulesETag != want.etag && want.etag != "" ||
			got.RulesVersion != want.rulesVersion || got.Revalidated != want.revalidated || got.Dropped != want.dropped:
			s.problem("PATCH %d: answered data_version %d, generation %d (%d re-scored, %d dropped); the replay has %d, %d (%d, %d)",
				k, got.DataVersion, got.RulesVersion, got.Revalidated, got.Dropped,
				want.dataVersion, want.rulesVersion, want.revalidated, want.dropped)
		}
		prev = got.DataVersion
	}
	want, _, err := rp.serveBatch(s.w.path, s.pool[0].body, nil, nil, 0)
	if err != nil {
		return fmt.Errorf("replaying the probe: %w", err)
	}
	status, got, err := post(s.clients[0], http.MethodPost, s.fleet.front+s.w.path, s.pool[0].body)
	switch {
	case err != nil:
		s.problem("probe after the patches: %v", err)
	case status != http.StatusOK:
		s.problem("probe after the patches answered %d: %.200s", status, got)
	case !bytes.Equal(got, want):
		s.problem("probe after %d patches: the body differs from the patch replay's", len(outcomes))
	}
	return nil
}

// quality scores the daemon's answers for the pool against the
// generated truth with the paper's weighted F1. A validation verdict
// predicts the expected value of a violation or missing cell and the
// value of a consistent one; a repair predicts the values it fixed. A
// tuple it left alone counts as no prediction (relation.Null), which
// costs recall but not precision.
func (s *servingRun) quality() (float64, error) {
	var ct codeTruth
	var pred, truth []int32
	s.mu.Lock()
	bodies := append([][]byte(nil), s.lastBody...)
	s.mu.Unlock()
	for b, body := range bodies {
		if body == nil {
			body = s.expect[b]
		}
		proposed := make(map[int]string)
		if s.w.path == serve.PathValidate {
			var resp serve.ValidateResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return 0, fmt.Errorf("scoring quality: %w", err)
			}
			for _, v := range resp.Results {
				switch v.Status {
				case "violation", "missing":
					proposed[v.Row] = v.Expected
				case "consistent":
					proposed[v.Row] = v.Got
				}
			}
		} else {
			var resp serve.RepairResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return 0, fmt.Errorf("scoring quality: %w", err)
			}
			for _, f := range resp.Fixes {
				proposed[f.Row] = f.New
			}
		}
		for i, row := range s.pool[b].rows {
			pred = append(pred, ct.code(proposed[i]))
			truth = append(truth, ct.code(s.in.truth[row]))
		}
	}
	return metrics.Weighted(pred, truth).F1, nil
}
