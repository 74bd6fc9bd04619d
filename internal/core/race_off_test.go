//go:build !race

package core

// raceEnabled reports whether the race detector is active; allocation
// gates skip under it because instrumentation perturbs alloc counts.
const raceEnabled = false
