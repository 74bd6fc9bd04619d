// Package rl implements the reinforcement-learning substrate of RLMiner:
// a Deep Q-Network agent (Mnih et al. [26], the algorithm the paper's
// §III-C5 selects for its discrete state/action spaces) with experience
// replay, a periodically synchronised target network, an ε-greedy
// exploration schedule and action masking — Q-values of invalid actions
// are pushed to -inf exactly as the paper's masked value network does
// (Eq. 13).
package rl

import (
	"math"
	"math/rand"

	"erminer/internal/detrand"
	"erminer/internal/nn"
)

// Transition is one (s, a, r, s') experience tuple. NextMask carries the
// valid-action mask of the next state so the Bellman backup maximises
// only over allowed actions.
type Transition struct {
	State    []float64
	Action   int
	Reward   float64
	Next     []float64
	NextMask []bool
	Done     bool
}

// Replay is a fixed-capacity ring-buffer experience replay memory.
type Replay struct {
	buf []Transition
	cap int
	pos int
	n   int
}

// NewReplay returns a replay memory with the given capacity. It panics
// if capacity is not positive: a zero-capacity ring buffer would divide
// by zero on the first Add.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		panic("rl: NewReplay capacity must be positive")
	}
	return &Replay{buf: make([]Transition, capacity), cap: capacity}
}

// Add appends a transition, evicting the oldest when full, and returns
// the slot it wrote.
func (r *Replay) Add(t Transition) int {
	slot := r.pos
	r.buf[slot] = t
	r.pos = (r.pos + 1) % r.cap
	if r.n < r.cap {
		r.n++
	}
	return slot
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return r.n }

// Sample fills out with transitions drawn uniformly with replacement
// and slots (as long as out) with the slots they were drawn from.
func (r *Replay) Sample(rng *detrand.RNG, out []Transition, slots []int) {
	slots = slots[:len(out)]
	for i := range out {
		slots[i] = rng.Intn(r.n)
		out[i] = r.buf[slots[i]]
	}
}

// Config holds the DQN hyperparameters.
type Config struct {
	// Gamma is the discount factor. Zero means 0.95.
	Gamma float64
	// LR is the Adam learning rate. Zero means 1e-3.
	LR float64
	// BatchSize is the minibatch size. Zero means 32.
	BatchSize int
	// ReplayCapacity is the replay memory size. Zero means 10000.
	ReplayCapacity int
	// TargetSync is how many optimisation steps separate target-network
	// synchronisations. Zero means 200.
	TargetSync int
	// Warmup is the number of observed transitions before optimisation
	// starts. Zero means 100.
	Warmup int
	// EpsStart/EpsEnd/EpsDecaySteps define the linear ε schedule.
	// Zero values mean 1.0 / 0.05 / 3000.
	EpsStart, EpsEnd float64
	EpsDecaySteps    int
	// Hidden lists the hidden layer widths. Nil means [128, 128].
	Hidden []int
	// DoubleDQN selects the double-DQN backup (argmax online, evaluate
	// target).
	DoubleDQN bool
	// PrioritizedAlpha, when positive, replaces uniform replay with
	// proportional prioritized experience replay at that α (typical
	// value 0.6).
	PrioritizedAlpha float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Gamma == 0 {
		out.Gamma = 0.95
	}
	if out.LR == 0 {
		out.LR = 1e-3
	}
	if out.BatchSize == 0 {
		out.BatchSize = 32
	}
	if out.ReplayCapacity == 0 {
		out.ReplayCapacity = 10000
	}
	if out.TargetSync == 0 {
		out.TargetSync = 200
	}
	if out.Warmup == 0 {
		out.Warmup = 100
	}
	if out.EpsStart == 0 {
		out.EpsStart = 1.0
	}
	if out.EpsEnd == 0 {
		out.EpsEnd = 0.05
	}
	if out.EpsDecaySteps == 0 {
		out.EpsDecaySteps = 3000
	}
	if out.Hidden == nil {
		out.Hidden = []int{128, 128}
	}
	return out
}

// Agent is a DQN agent over a fixed-dimensional discrete action space.
type Agent struct {
	cfg      Config
	online   *nn.MLP
	target   *nn.MLP
	opt      *nn.Adam
	replay   *Replay
	preplay  *PrioritizedReplay
	rng      *detrand.RNG
	steps    int // observed transitions (drives ε)
	optSteps int // optimisation steps (drives target sync)

	// The target network's Q-values of each filled replay slot's next
	// state: the row of slot s is targetRows[s*actionDim:][:actionDim],
	// valid while rowValid[s]. TrainStep forwards a row the first time
	// a minibatch samples its slot after the slot was written or the
	// target network synced. Every product computes each row on its
	// own, so a cached row has the bits a full-batch forward would give
	// it. The replays fill their slots in order, and the cache grows
	// with them. It is not serialised; a restored agent recomputes it.
	targetRows []float64
	rowValid   []bool
	actionDim  int

	// Minibatch buffers TrainStep reuses: the sampled transitions and
	// their replay slots, the states and taken actions, the next states
	// whose target rows are missing and their slots, the next states of
	// the double-DQN backup, the Bellman targets, the taken actions'
	// Q-values, the errors and the loss gradient with respect to the
	// Q-values.
	batch                []Transition
	slots                []int
	states               *nn.Matrix
	actions              []int
	pending              *nn.Matrix
	pendingSlots         []int
	nexts                *nn.Matrix
	targets, q, errs, dq []float64
}

// NewAgent builds an agent for the given state/action dimensions. The
// agent draws all its randomness from rng, whose state is exportable, so
// SaveState captures the agent completely.
func NewAgent(rng *detrand.RNG, stateDim, actionDim int, cfg Config) *Agent {
	c := cfg.withDefaults()
	sizes := append([]int{stateDim}, c.Hidden...)
	sizes = append(sizes, actionDim)
	// Network initialisation draws through the stdlib wrapper from the
	// same underlying state; it happens before any checkpoint, so the
	// wrapper's internal buffering never leaks into a saved state.
	return NewAgentFrom(rng, nn.NewMLP(rand.New(rng), sizes...), cfg)
}

// NewAgentFrom builds an agent around an existing value network (used by
// RLMiner-ft to fine-tune a previously trained network). The exploration
// schedule restarts at cfg's settings.
func NewAgentFrom(rng *detrand.RNG, net *nn.MLP, cfg Config) *Agent {
	c := cfg.withDefaults()
	a := &Agent{
		cfg:    c,
		online: net,
		target: net.Clone(),
		opt:    nn.NewAdam(c.LR),
		rng:    rng,
	}
	if c.PrioritizedAlpha > 0 {
		a.preplay = NewPrioritizedReplay(c.ReplayCapacity, c.PrioritizedAlpha)
	} else {
		a.replay = NewReplay(c.ReplayCapacity)
	}
	a.allocBuffers()
	return a
}

// allocBuffers allocates the target row cache, one row per filled
// replay slot, and the minibatch buffers at the configured batch size
// and the online network's input and output widths. The replay must
// exist.
func (a *Agent) allocBuffers() {
	n, sizes := a.cfg.BatchSize, a.online.Sizes()
	in := sizes[0]
	a.actionDim = sizes[len(sizes)-1]
	a.targetRows = make([]float64, a.replayLen()*a.actionDim)
	a.rowValid = make([]bool, a.replayLen())
	a.batch = make([]Transition, n)
	a.slots = make([]int, n)
	a.states = nn.NewMatrix(n, in)
	a.actions = make([]int, n)
	a.pending = nn.NewMatrix(n, in)
	a.pendingSlots = make([]int, n)
	if a.cfg.DoubleDQN {
		a.nexts = nn.NewMatrix(n, in)
	}
	a.targets = make([]float64, n)
	a.q = make([]float64, n)
	a.errs = make([]float64, n)
	a.dq = make([]float64, n)
}

// replayLen returns the number of stored transitions.
func (a *Agent) replayLen() int {
	if a.preplay != nil {
		return a.preplay.Len()
	}
	return a.replay.Len()
}

// Network returns the online value network.
func (a *Agent) Network() *nn.MLP { return a.online }

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 {
	c := a.cfg
	if a.steps >= c.EpsDecaySteps {
		return c.EpsEnd
	}
	frac := float64(a.steps) / float64(c.EpsDecaySteps)
	return c.EpsStart + (c.EpsEnd-c.EpsStart)*frac
}

// QValues returns the online network's Q-value vector for a state.
func (a *Agent) QValues(state []float64) []float64 {
	return append([]float64(nil), a.online.Predict(state)...)
}

// SelectAction returns a masked ε-greedy action: with probability eps a
// uniformly random valid action, otherwise the valid action with maximal
// Q-value (the paper's Eq. 13 mask: invalid logits are −inf). It panics
// if no action is valid — the environment always allows "stop".
func (a *Agent) SelectAction(state []float64, mask []bool, eps float64) int {
	if eps > 0 && a.rng.Float64() < eps {
		return a.randomValid(mask)
	}
	q := a.online.Predict(state)
	best, bestQ := -1, math.Inf(-1)
	for i, ok := range mask {
		if ok && q[i] > bestQ {
			best, bestQ = i, q[i]
		}
	}
	if best < 0 {
		panic("rl: no valid action")
	}
	return best
}

// randomValid returns a uniformly drawn valid action: the k-th valid
// one, for a single draw k below their count.
func (a *Agent) randomValid(mask []bool) int {
	valid := 0
	for _, ok := range mask {
		if ok {
			valid++
		}
	}
	if valid == 0 {
		panic("rl: no valid action")
	}
	k := a.rng.Intn(valid)
	for i, ok := range mask {
		if ok {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("unreachable")
}

// Observe stores a transition and advances the ε schedule. The replay
// keeps t's slices, so the caller must not modify them afterwards.
func (a *Agent) Observe(t Transition) {
	var slot int
	if a.preplay != nil {
		slot = a.preplay.Add(t)
	} else {
		slot = a.replay.Add(t)
	}
	if slot == len(a.rowValid) {
		a.rowValid = append(a.rowValid, false)
		a.targetRows = append(a.targetRows, make([]float64, a.actionDim)...)
	} else {
		a.rowValid[slot] = false
	}
	a.steps++
}

// TrainStep samples a minibatch and performs one optimisation step. It
// returns the mean Huber loss actually optimised and whether an
// optimisation step happened at all — during warmup (replay smaller than
// Warmup or BatchSize) it returns (0, false), which callers must not
// confuse with a genuine zero-loss step. Once every buffer and
// workspace exists it allocates nothing.
func (a *Agent) TrainStep() (loss float64, stepped bool) {
	if a.replayLen() < a.cfg.Warmup || a.replayLen() < a.cfg.BatchSize {
		return 0, false
	}
	batch := a.batch
	if a.preplay != nil {
		a.preplay.Sample(a.rng, batch, a.slots)
	} else {
		a.replay.Sample(a.rng, batch, a.slots)
	}
	for i, t := range batch {
		copy(a.states.Row(i), t.State)
		a.actions[i] = t.Action
	}
	a.fillTargetRows()

	// Bellman targets from the target network's rows, maximising over
	// the next state's valid actions only. onlineNextQ aliases the
	// online network's workspace, so it is read before ForwardAt.
	var onlineNextQ *nn.Matrix
	if a.cfg.DoubleDQN {
		for i, t := range batch {
			if t.Done {
				clear(a.nexts.Row(i))
			} else {
				copy(a.nexts.Row(i), t.Next)
			}
		}
		onlineNextQ = a.online.Forward(a.nexts)
	}
	targets := a.targets
	for i, t := range batch {
		targets[i] = t.Reward
		if t.Done {
			continue
		}
		targetQ := a.targetRow(a.slots[i])
		if a.cfg.DoubleDQN {
			best, bestQ := -1, math.Inf(-1)
			row := onlineNextQ.Row(i)
			for j, ok := range t.NextMask {
				if ok && row[j] > bestQ {
					best, bestQ = j, row[j]
				}
			}
			if best >= 0 {
				targets[i] += a.cfg.Gamma * targetQ[best]
			}
		} else {
			bestQ := math.Inf(-1)
			for j, ok := range t.NextMask {
				if ok && targetQ[j] > bestQ {
					bestQ = targetQ[j]
				}
			}
			if !math.IsInf(bestQ, -1) {
				targets[i] += a.cfg.Gamma * bestQ
			}
		}
	}

	// Forward-backward on the online network through the taken actions
	// alone: the loss reads only their Q-values, so its gradient (the
	// Huber-clipped error) is non-zero only there.
	a.online.ForwardAt(a.states, a.actions, a.q)
	for i, q := range a.q {
		e := q - targets[i]
		a.errs[i] = e
		loss += nn.HuberLoss(e)
		a.dq[i] = nn.HuberGrad(e) / float64(len(batch))
	}
	a.online.Backward(a.actions, a.dq)
	a.opt.Step(a.online.Params())
	if a.preplay != nil {
		a.preplay.Update(a.slots, a.errs)
	}

	a.optSteps++
	if a.optSteps%a.cfg.TargetSync == 0 {
		a.target.CopyFrom(a.online)
		clear(a.rowValid)
	}
	return loss / float64(len(batch)), true
}

// fillTargetRows makes the target row of every sampled non-terminal
// transition valid, forwarding through the target network only the next
// states whose rows are missing. A terminal transition's target is its
// reward alone, so its row is never needed.
func (a *Agent) fillTargetRows() {
	p := a.pending
	p.Rows, p.Data = len(a.batch), p.Data[:cap(p.Data)]
	miss := 0
	for i, t := range a.batch {
		s := a.slots[i]
		if t.Done || a.rowValid[s] {
			continue
		}
		a.rowValid[s] = true // a slot sampled twice is forwarded once
		copy(p.Row(miss), t.Next)
		a.pendingSlots[miss] = s
		miss++
	}
	if miss == 0 {
		return
	}
	p.Rows, p.Data = miss, p.Data[:miss*p.Cols]
	q := a.target.Forward(p)
	for r, s := range a.pendingSlots[:miss] {
		copy(a.targetRow(s), q.Row(r))
	}
}

// targetRow returns the cached target-network row of replay slot s.
func (a *Agent) targetRow(s int) []float64 {
	return a.targetRows[s*a.actionDim:][:a.actionDim]
}
