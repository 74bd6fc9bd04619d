package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the load generator; tests substitute a
// fake one so a stall is exact rather than a race against the host.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sample is one request of an open-loop phase.
type sample struct {
	// latency runs from when the request was due, not from when it was
	// sent, so a stall also charges every request queued behind it
	// (no coordinated omission).
	latency time.Duration
	// late is how long after its due time the request was sent: the
	// time it waited for a free connection.
	late time.Duration
	ok   bool
}

// schedule returns the due offsets of n requests at a fixed rate.
func schedule(rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// openLoop sends request i at due[i] after the phase starts over conns
// connections, whatever the system's speed. Requests are claimed in due
// order by whichever connection is free, so when every connection is
// busy the next request waits in the generator and that wait counts
// toward its latency. send reports whether request i succeeded.
func openLoop(clk clock, due []time.Duration, conns int, send func(conn, i int) bool) []sample {
	out := make([]sample, len(due))
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				clk.SleepUntil(at)
				sent := clk.Now()
				ok := send(c, i)
				out[i] = sample{latency: clk.Now().Sub(at), late: sent.Sub(at), ok: ok}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns requests outstanding until dur has passed and
// returns how many succeeded, how many failed, and the time from the
// start to the last completion. Its rate is the system's capacity with
// conns callers that each wait for their reply.
func closedLoop(clk clock, dur time.Duration, conns int, send func(conn, i int) bool) (okN, failed int, elapsed time.Duration) {
	start := clk.Now()
	deadline := start.Add(dur)
	var next, good, bad atomic.Int64
	var mu sync.Mutex
	last := start
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for clk.Now().Before(deadline) {
				if send(c, int(next.Add(1)-1)) {
					good.Add(1)
				} else {
					bad.Add(1)
				}
				now := clk.Now()
				mu.Lock()
				if now.After(last) {
					last = now
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return int(good.Load()), int(bad.Load()), last.Sub(start)
}
