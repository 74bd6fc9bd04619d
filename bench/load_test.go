package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is virtual time: sleeping jumps to the deadline and a fake
// server's work advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// A server that stalls once must inflate the latency of every request
// queued behind the stall, not just the stalled one, and the generator
// must report that it ran late.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	due := schedule(100, 10) // every 10ms
	samples := openLoop(clk, due, 1, func(conn, i int) bool {
		if i == 3 {
			clk.advance(50 * time.Millisecond)
		} else {
			clk.advance(time.Millisecond)
		}
		return i != 9
	})
	want := []struct{ latency, late time.Duration }{
		{1, 0}, {1, 0}, {1, 0},
		{50, 0}, // due at 30, done at 80
		{41, 40}, {32, 31}, {23, 22}, {14, 13}, {5, 4},
		{1, 0}, // due at 90, the backlog has drained
	}
	for i, w := range want {
		s := samples[i]
		if s.latency != w.latency*time.Millisecond || s.late != w.late*time.Millisecond {
			t.Errorf("request %d: latency %v late %v, want %v and %v", i, s.latency, s.late, w.latency*time.Millisecond, w.late*time.Millisecond)
		}
		if s.ok != (i != 9) {
			t.Errorf("request %d: ok = %v", i, s.ok)
		}
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	okN, failed, elapsed := closedLoop(clk, 100*time.Millisecond, 1, func(conn, i int) bool {
		clk.advance(4 * time.Millisecond)
		return i%5 != 4
	})
	if okN+failed != 25 || failed != 5 || elapsed != 100*time.Millisecond {
		t.Errorf("closed loop: %d ok, %d failed in %v; want 20, 5 in 100ms", okN, failed, elapsed)
	}
}

func TestScheduleIsFixedRate(t *testing.T) {
	due := schedule(90, 91)
	if due[0] != 0 || due[90] != time.Second {
		t.Errorf("schedule(90/s): first %v, 91st %v; want 0 and 1s", due[0], due[90])
	}
}
