package rl

import (
	"math"

	"erminer/internal/detrand"
)

// PrioritizedReplay is proportional prioritized experience replay
// (Schaul et al. 2016): transitions are sampled with probability
// proportional to |δ|^α (δ = last Bellman error), focusing optimisation
// on surprising experiences. A sum-tree gives O(log n) sampling and
// priority updates.
type PrioritizedReplay struct {
	capacity int
	alpha    float64
	tree     []float64 // binary sum tree over 2*capacity nodes
	data     []Transition
	pos      int
	n        int
	maxPrio  float64
}

// NewPrioritizedReplay returns a prioritized replay memory. alpha = 0
// degrades to uniform sampling; the usual value is 0.6. It panics if
// capacity is not positive, matching NewReplay rather than silently
// rounding up to a one-slot buffer.
func NewPrioritizedReplay(capacity int, alpha float64) *PrioritizedReplay {
	if capacity <= 0 {
		panic("rl: NewPrioritizedReplay capacity must be positive")
	}
	// Round capacity up to a power of two for a clean tree layout.
	c := 1
	for c < capacity {
		c *= 2
	}
	return &PrioritizedReplay{
		capacity: c,
		alpha:    alpha,
		tree:     make([]float64, 2*c),
		data:     make([]Transition, c),
		maxPrio:  1,
	}
}

// Len returns the number of stored transitions.
func (p *PrioritizedReplay) Len() int { return p.n }

// Add stores a transition with the maximum seen priority so it is
// sampled at least once soon, and returns the slot it wrote.
func (p *PrioritizedReplay) Add(t Transition) int {
	idx := p.pos
	p.data[idx] = t
	p.setPriority(idx, p.maxPrio)
	p.pos = (p.pos + 1) % p.capacity
	if p.n < p.capacity {
		p.n++
	}
	return idx
}

// setPriority writes |δ|^α into the leaf and propagates the sums up.
func (p *PrioritizedReplay) setPriority(idx int, prio float64) {
	node := idx + p.capacity
	p.tree[node] = prio
	for node > 1 {
		node /= 2
		p.tree[node] = p.tree[2*node] + p.tree[2*node+1]
	}
}

// Sample fills out with transitions drawn proportionally to priority
// and idxs (as long as out) with their indices, for later priority
// updates.
func (p *PrioritizedReplay) Sample(rng *detrand.RNG, out []Transition, idxs []int) {
	idxs = idxs[:len(out)]
	total := p.tree[1]
	for i := range out {
		x := rng.Float64() * total
		node := 1
		for node < p.capacity {
			if x < p.tree[2*node] {
				node = 2 * node
			} else {
				x -= p.tree[2*node]
				node = 2*node + 1
			}
		}
		idx := node - p.capacity
		if idx >= p.n {
			// Rounding landed on an unused leaf (possible with float
			// noise); fall back to uniform.
			idx = rng.Intn(p.n)
		}
		out[i] = p.data[idx]
		idxs[i] = idx
	}
}

// Update records the new Bellman errors of sampled transitions.
func (p *PrioritizedReplay) Update(idxs []int, errs []float64) {
	for i, idx := range idxs {
		prio := math.Pow(math.Abs(errs[i])+1e-6, p.alpha)
		if prio > p.maxPrio {
			p.maxPrio = prio
		}
		p.setPriority(idx, prio)
	}
}
