// Package a is a guardedby fixture for the atomicmix rules: a field
// accessed via sync/atomic must not also be accessed plainly — unless the
// plain access holds its "guarded by" mutex (atomic readers, locked writers).
package a

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	hits  atomic.Int64
	mu    sync.Mutex
	soft  int64 // guarded by mu
	raw   int64
	plain int64
}

// okMethods drives the typed atomic through its API; passes.
func (c *counter) okMethods() int64 {
	c.hits.Add(1)
	return c.hits.Load()
}

// okAddr passes the typed atomic by address; passes.
func okAddr(c *counter) *atomic.Int64 {
	return &c.hits
}

// copyValue copies the typed atomic as a plain value.
func (c *counter) copyValue() int64 {
	h := c.hits // want `atomic field hits is used as a plain value here`
	return h.Load()
}

// bump makes raw an atomically-accessed field for the whole package.
func (c *counter) bump() {
	atomic.AddInt64(&c.raw, 1)
}

// mixedRead reads raw plainly with no guard at all.
func (c *counter) mixedRead() int64 {
	return c.raw // want `field raw is accessed with sync/atomic elsewhere in this package; this plain access races with it`
}

// softLoad reads soft atomically on the fast path.
func (c *counter) softLoad() int64 {
	return atomic.LoadInt64(&c.soft)
}

// okGuarded writes soft under its declared guard; passes (the one
// sound mixed regime).
func (c *counter) okGuarded(v int64) {
	c.mu.Lock()
	c.soft = v
	c.mu.Unlock()
}

// unguardedWrite writes soft with neither atomics nor mu.
func (c *counter) unguardedWrite(v int64) {
	c.soft = v // want `field soft is accessed with sync/atomic elsewhere in this package; this plain access is outside its declared guard mu`
}

// okPlain is never touched atomically; plain access passes.
func (c *counter) okPlain() int64 {
	c.plain++
	return c.plain
}

// seed resets raw before any reader starts; the race is documented.
func (c *counter) seed() {
	//ermvet:ignore guardedby fixture exercising the suppression path
	c.raw = 0
}
