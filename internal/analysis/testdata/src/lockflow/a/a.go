// Package a is a lockorder fixture for the per-path (lockflow) rules.
package a

import (
	"errors"
	"sync"
)

type store struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// ok locks with a deferred unlock and passes.
func (s *store) ok() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// okBranch unlocks on both paths and passes.
func (s *store) okBranch(fail bool) error {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return errors.New("boom")
	}
	s.n++
	s.mu.Unlock()
	return nil
}

// useAfterUnlock reads the guarded field after releasing the lock.
func (s *store) useAfterUnlock() int {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	return s.n // want `s.n accessed in useAfterUnlock on a path where s.mu is not held`
}

// branchyRead only locks on one branch but reads on both.
func (s *store) branchyRead(lock bool) int {
	if lock {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.n // want `s.n accessed in branchyRead on a path where s.mu is not held`
}

// leakOnError forgets the unlock on the early error return.
func (s *store) leakOnError(fail bool) error {
	s.mu.Lock()
	if fail {
		return errors.New("boom") // want `s.mu is still locked when leakOnError returns on this path`
	}
	s.mu.Unlock()
	return nil
}

// doubleLock re-locks a mutex already held on the same path.
func (s *store) doubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want `s.mu locked again in doubleLock while already held on this path \(self-deadlock\)`
	s.mu.Unlock()
}

// suppressedLeak keeps the lock across the return on purpose; the
// caller is documented to unlock.
func (s *store) suppressedLeak(fail bool) error {
	s.mu.Lock()
	if fail {
		//ermvet:ignore lockorder fixture exercising the suppression path
		return errors.New("caller unlocks")
	}
	s.mu.Unlock()
	return nil
}

type rstore struct {
	mu sync.RWMutex
	v  int // guarded by mu
}

// reread takes the read lock twice on one path; RLock over RLock is
// admitted (sync.RWMutex allows concurrent readers).
func (r *rstore) reread() int {
	r.mu.RLock()
	r.mu.RLock()
	v := r.v
	r.mu.RUnlock()
	r.mu.RUnlock()
	return v
}

// upgrade write-locks while read-holding: a self-deadlock.
func (r *rstore) upgrade() int {
	r.mu.RLock()
	r.mu.Lock() // want `r.mu locked again in upgrade while already held on this path \(self-deadlock\)`
	v := r.v
	r.mu.Unlock()
	return v
}

type plainBox struct {
	mu sync.Mutex
	v  int
}

// copyBox forks a live lock by dereferencing.
func copyBox(b *plainBox) int {
	dup := *b // want `assignment copies \*b, whose type .*plainBox contains a mutex`
	return dup.v
}

func sinkBox(plainBox) {}

// passBox forks a live lock into a call argument.
func passBox(b *plainBox) {
	sinkBox(*b) // want `call argument copies \*b, whose type .*plainBox contains a mutex`
}

type ptrBox struct {
	mu *sync.Mutex
	v  int
}

// copyPtrBox copies a *sync.Mutex field, which shares the lock rather
// than forking it, and passes.
func copyPtrBox(b *ptrBox) int {
	dup := *b
	return dup.v
}
