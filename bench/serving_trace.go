package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"time"

	"erminer/internal/cluster"
	"erminer/internal/serve"
)

// trace runs the traced serving workload: a short open-loop phase for
// the generator's and daemons' own counters, then the in-process
// replays that attribute a request's time to layers.
func (s *servingRun) trace() (*result, error) {
	res := newResult(s.w.name, s.env.seed)
	f, _, err := s.coldStart()
	if err != nil {
		return nil, err
	}
	s.fleet = f
	defer s.fleet.stop()
	res.attempted++

	if err := s.traceLoad(res); err != nil {
		return nil, err
	}
	tr := newTracer()
	if s.w.patchEvery > 0 {
		if err := s.checkPatches(tr); err != nil {
			return nil, err
		}
		res.attempted++
		lt := aggregate(tr.snapshot())
		k := float64(max(lt.calls["patch"], 1))
		res.set("relation.apply_delta_us", us(lt.selfNS["relation.apply_delta"])/k, lt.calls["patch"])
		res.set("measure.patch_us", us(lt.selfNS["measure.patch"])/k, lt.calls["patch"])
		res.set("repair.revalidate_us", us(lt.selfNS["repair.revalidate"])/k, lt.calls["patch"])
		s.patchMu.Lock()
		var reval, dropped int
		for _, p := range s.patches {
			reval += p.resp.Revalidated
			dropped += p.resp.Dropped
		}
		s.patchMu.Unlock()
		res.set("repair.revalidated", float64(reval)/k, lt.calls["patch"])
		res.set("repair.dropped", float64(dropped), lt.calls["patch"])
	}
	if err := s.traceReplay(res, tr); err != nil {
		return nil, err
	}
	if s.w.clusterWorkers > 0 {
		if err := s.traceCluster(res, tr); err != nil {
			return nil, err
		}
	}
	if err := s.env.writeSpans(tr.snapshot()); err != nil {
		return nil, err
	}
	s.finish(res)
	return res, nil
}

// traceLoad runs the open loop at the frozen rate for part of the run
// and records what the generator saw and what the daemons counted.
func (s *servingRun) traceLoad(res *result) error {
	before, err := s.fleet.metrics(s.clients[0])
	if err != nil {
		return err
	}
	n := int(s.w.rate * openShare * s.env.seconds / 2)
	due := schedule(s.w.rate, n)
	samples := openLoop(wallClock{}, due, len(s.clients), s.send)
	after, err := s.fleet.metrics(s.clients[0])
	if err != nil {
		return err
	}
	res.attempted += n

	var late, patchLat, afterPatch []float64
	failed := 0
	lastPatchDue := time.Duration(-1)
	for i, sm := range samples {
		late = append(late, ms(sm.late))
		if !sm.ok {
			failed++
		}
		if s.isPatch(i) {
			patchLat = append(patchLat, ms(sm.latency))
			lastPatchDue = due[i]
			continue
		}
		if lastPatchDue >= 0 && due[i]-lastPatchDue <= 100*time.Millisecond {
			afterPatch = append(afterPatch, ms(sm.latency))
		}
	}
	res.set("load.sent", float64(n), n)
	res.set("load.failed", float64(failed), n)
	res.set("load.late_tail_ms", percentile(late, tailPercentile(len(late))), len(late))
	res.set("load.patch_p50_ms", percentile(patchLat, 50), len(patchLat))
	res.set("load.patch_tail_ms", percentile(patchLat, tailPercentile(len(patchLat))), len(patchLat))
	res.set("load.lat_tail_after_patch_ms", percentile(afterPatch, tailPercentile(len(afterPatch))), len(afterPatch))
	delta := func(suffix string) float64 { return bySuffix(after, suffix) - bySuffix(before, suffix) }
	res.set("serve.rejected", delta("_rejected_total"), n)
	res.set("serve.timeouts", delta("_timeouts_total"), n)
	res.set("cluster.retries", delta("_retries_total"), n)
	res.set("cluster.redispatches", delta("_redispatches_total"), n)
	return nil
}

// runtimeCounters are the process-wide runtime/metrics the replay
// brackets.
var runtimeCounters = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() []float64 {
	ss := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		ss[i].Name = n
	}
	metrics.Read(ss)
	out := make([]float64, len(ss))
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// replayTotals accumulates one kind of replay pass.
type replayTotals struct {
	requests int
	wall     time.Duration
	fixes    int
	renders  int
	distinct int
	evals    int
	builds   int
	scanned  int
	bytes    int
	runtime  []float64 // deltas of runtimeCounters
}

// traceReplay replays the pool through the serving layers, alternating
// traced passes, untraced passes and passes through an in-process
// erminerd handler on the same batches, until its share of the run is
// spent. The traced passes give the per-layer self times, the untraced
// ones the tracing overhead, and the handler the reference the stage
// times must add up to.
func (s *servingRun) traceReplay(res *result, tr *tracer) error {
	rp, err := newReplayer(s.in)
	if err != nil {
		return err
	}
	hp, hrules, err := s.in.loadServing()
	if err != nil {
		return err
	}
	srv, err := serve.New(hp, hrules, serve.Config{})
	if err != nil {
		return fmt.Errorf("building the in-process handler: %w", err)
	}
	handle := func(b int) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, s.w.path, bytes.NewReader(s.pool[b].body))
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), s.expect[b]) {
			return d, fmt.Errorf("in-process handler: batch %d answered %d with a body that differs from the replay's", b, rec.Code)
		}
		return d, nil
	}
	pass := func(tt *tracer, al *allocTally, tot *replayTotals, tid *int64) error {
		before := readRuntime()
		for b, bt := range s.pool {
			*tid++
			start := time.Now()
			out, st, err := rp.serveBatch(s.w.path, bt.body, tt, al, *tid)
			tot.wall += time.Since(start)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, s.expect[b]) {
				return fmt.Errorf("replay: batch %d differs from the first replay", b)
			}
			tot.requests++
			tot.fixes += st.fixes
			tot.renders += st.renders
			tot.distinct += st.distinctRendered
			tot.evals += st.measure.Evaluations
			tot.builds += st.measure.IndexBuilds
			tot.scanned += st.measure.TuplesScanned
			tot.bytes += len(out)
		}
		after := readRuntime()
		if tot.runtime == nil {
			tot.runtime = make([]float64, len(after))
		}
		for i := range after {
			tot.runtime[i] += after[i] - before[i]
		}
		return nil
	}

	// Warm the index caches on both sides before timing anything.
	var warm replayTotals
	var tid int64 = 1 << 40
	if err := pass(nil, nil, &warm, &tid); err != nil {
		return err
	}
	for b := range s.pool {
		if _, err := handle(b); err != nil {
			return err
		}
	}

	var traced, plain replayTotals
	var handlerWall time.Duration
	var handled int
	al := newAllocTally()
	start := len(tr.snapshot())
	deadline := time.Now().Add(time.Duration(0.35 * s.env.seconds * float64(time.Second)))
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		if err := pass(tr, al, &traced, &tid); err != nil {
			return err
		}
		if err := pass(nil, nil, &plain, &tid); err != nil {
			return err
		}
		for b := range s.pool {
			d, err := handle(b)
			if err != nil {
				return err
			}
			handlerWall += d
			handled++
		}
	}

	lt := aggregate(tr.snapshot()[start:])
	n := float64(traced.requests)
	perReq := func(layer string) float64 { return us(lt.selfNS[layer]) / n }
	allocs := func(layer string) float64 { return float64(al.byName[layer]) / n }
	res.set("serve.decode_us", perReq("serve.decode"), traced.requests)
	res.set("serve.decode_allocs", allocs("serve.decode"), traced.requests)
	res.set("serve.classify_us", perReq("serve.classify"), traced.requests)
	res.set("serve.encode_us", perReq("serve.encode"), traced.requests)
	res.set("serve.encode_bytes", float64(traced.bytes)/n, traced.requests)
	res.set("serve.encode_allocs", allocs("serve.encode"), traced.requests)
	res.set("relation.build_us", perReq("relation.build"), traced.requests)
	res.set("relation.build_allocs", allocs("relation.build"), traced.requests)
	res.set("repair.apply_us", perReq("repair.apply"), traced.requests)
	res.set("repair.apply_allocs", allocs("repair.apply"), traced.requests)
	res.set("repair.explain_us", perReq("repair.explain"), traced.requests)
	res.set("repair.explain_allocs", allocs("repair.explain"), traced.requests)
	res.set("repair.fixes_per_req", float64(traced.fixes)/n, traced.requests)
	res.set("rule.render_us", perReq("rule.render"), traced.requests)
	res.set("rule.render_calls", float64(traced.renders)/n, traced.requests)
	if traced.renders > 0 {
		res.set("rule.render_distinct_frac", float64(traced.distinct)/float64(traced.renders), traced.renders)
	}
	res.set("measure.evaluations", float64(traced.evals)/n, traced.requests)
	res.set("measure.index_builds", float64(traced.builds)/n, traced.requests)
	res.set("measure.tuples_scanned", float64(traced.scanned)/n, traced.requests)
	res.set("runtime.allocs_per_op", traced.runtime[0]/n, traced.requests)
	res.set("runtime.bytes_per_op", traced.runtime[1]/n, traced.requests)
	res.set("runtime.gc_cpu_frac", traced.runtime[2]/traced.wall.Seconds(), traced.requests)

	handlerUS := us(handlerWall.Nanoseconds()) / float64(handled)
	res.set("serve.handler_us", handlerUS, handled)
	var stages int64
	for name, ns := range lt.selfNS {
		if name != "request" {
			stages += ns
		}
	}
	res.set("trace.attribution_gap", math.Abs(us(stages)/n-handlerUS)/handlerUS, traced.requests)
	res.set("trace.overhead_frac", traced.wall.Seconds()/float64(traced.requests)/
		(plain.wall.Seconds()/float64(plain.requests))-1, traced.requests)
	res.attempted += traced.requests + plain.requests + handled
	return nil
}

// spanRef locates the request span a worker sub-request belongs to.
type spanRef struct{ tid, parent int64 }

type spanRefKey struct{}

// recordingTransport records one span per coordinator → worker
// sub-request, from the request's start until its body is closed.
type recordingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanRefKey{}).(spanRef)
	id := t.tr.start(ref.tid, ref.parent, "cluster.worker")
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	end func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.end()
	return err
}

// traceCluster replays the pool through an in-process coordinator over
// the running worker processes, whose transport records every
// sub-request. A request's self time is then partition, merge and
// re-encode: its duration minus the union of its sub-requests.
func (s *servingRun) traceCluster(res *result, tr *tracer) error {
	var urls []string
	for _, w := range s.fleet.workers {
		urls = append(urls, w.url)
	}
	coord, err := cluster.New(cluster.Config{
		Workers:        urls,
		HealthInterval: -1,
		Client:         &http.Client{Transport: &recordingTransport{base: &http.Transport{}, tr: tr}},
	})
	if err != nil {
		return fmt.Errorf("building the in-process coordinator: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := coord.Shutdown(ctx.Done()); err != nil {
			fmt.Fprintln(os.Stderr, "ermbench: in-process coordinator:", err)
		}
	}()
	start := len(tr.snapshot())
	var tid int64 = 1 << 50
	requests := 0
	deadline := time.Now().Add(time.Duration(0.15 * s.env.seconds * float64(time.Second)))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for b, bt := range s.pool {
			tid++
			root := tr.start(tid, 0, "cluster.request")
			ctx := context.WithValue(context.Background(), spanRefKey{}, spanRef{tid: tid, parent: root})
			req := httptest.NewRequest(http.MethodPost, s.w.path, bytes.NewReader(bt.body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			coord.ServeHTTP(rec, req)
			tr.end(root)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), s.expect[b]) {
				return fmt.Errorf("in-process coordinator: batch %d answered %d with a body that differs from the single-node replay's", b, rec.Code)
			}
			requests++
		}
	}
	spans := tr.snapshot()[start:]
	lt := aggregate(spans)
	longest := make(map[int64]int64)
	for _, sp := range spans {
		if sp.Name == "cluster.worker" {
			longest[sp.TraceID] = max(longest[sp.TraceID], sp.EndNS-sp.StartNS)
		}
	}
	var fanout int64
	for _, d := range longest {
		fanout += d
	}
	n := float64(requests)
	calls := lt.calls["cluster.worker"]
	res.set("cluster.subbatches_per_req", float64(calls)/n, requests)
	res.set("cluster.worker_us", us(lt.selfNS["cluster.worker"])/float64(max(calls, 1)), calls)
	res.set("cluster.fanout_us", us(fanout)/n, requests)
	res.set("cluster.coord_self_us", us(lt.selfNS["cluster.request"])/n, requests)
	res.attempted += requests
	return nil
}

// us converts nanoseconds to float microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
