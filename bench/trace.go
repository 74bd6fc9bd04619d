package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a
// request or a mine) share a trace ID; parent is the span that caused
// this one (0 for the operation's root).
type span struct {
	TraceID int64  `json:"trace_id"`
	SpanID  int64  `json:"span_id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so
// one replay function serves both the traced and the untraced pass.
// It is safe for concurrent use: the cluster replay records worker
// sub-requests from the coordinator's fan-out goroutines.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(traceID, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{TraceID: traceID, SpanID: id, Parent: parent, Name: name, StartNS: now})
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanFileCap bounds a span file. A traced serving run records about a
// thousand spans per explained request; the file keeps whole operations,
// in the order they started, up to this many spans.
const spanFileCap = 50000

// firstTraces returns the spans of the earliest-started operations
// whose spans together fit in limit.
func firstTraces(spans []span, limit int) []span {
	size := make(map[int64]int)
	for _, s := range spans {
		size[s.TraceID]++
	}
	keep := make(map[int64]bool)
	decided := make(map[int64]bool)
	total := 0
	var out []span
	for _, s := range spans {
		if !decided[s.TraceID] {
			decided[s.TraceID] = true
			if total+size[s.TraceID] <= limit {
				keep[s.TraceID] = true
				total += size[s.TraceID]
			}
		}
		if keep[s.TraceID] {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONLines writes one span per line to path.
func writeJSONLines(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			//ermvet:ignore errdrop the encode error is already being returned; close failure is secondary
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		//ermvet:ignore errdrop the flush error is already being returned; close failure is secondary
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerTotals aggregates a span set by name: the summed self time (a
// span's duration minus the part of its interval its children cover)
// and the number of spans.
type layerTotals struct {
	selfNS map[string]int64
	calls  map[string]int
}

func aggregate(spans []span) layerTotals {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTotals{selfNS: make(map[string]int64), calls: make(map[string]int)}
	for _, s := range spans {
		lt.selfNS[s.Name] += selfTime(s, children[s.SpanID])
		lt.calls[s.Name]++
	}
	return lt
}

// selfTime is s's duration minus the union of its children's
// intervals, each clipped to s. Overlapping children (concurrent
// sub-requests) are counted once.
func selfTime(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return s.EndNS - s.StartNS - covered
}
