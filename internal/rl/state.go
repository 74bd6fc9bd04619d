package rl

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"erminer/internal/detrand"
	"erminer/internal/nn"
)

// savedReplay is the wire form of a uniform replay buffer. The ring is
// saved verbatim — buffer contents, write position and fill level — so a
// restored agent samples exactly the transitions the original would.
type savedReplay struct {
	Cap int
	Pos int
	N   int
	Buf []Transition
}

// savedPrioReplay is the wire form of a prioritized replay buffer,
// including the full sum tree so sampling probabilities survive the
// round trip bit-for-bit.
type savedPrioReplay struct {
	Capacity int
	Pos      int
	N        int
	MaxPrio  float64
	Tree     []float64
	Data     []Transition
}

// savedAgentVersion numbers the agent gob format, including everything
// it embeds (Config, replay buffers, Adam moments); bump on any shape
// change (wiredrift gates it).
const savedAgentVersion = 1

// savedAgent is the gob wire format of a DQN agent mid-training. Cfg is
// the resolved configuration (defaults already applied), so loading does
// not re-apply defaults — a caller who explicitly configured a value
// that collides with a zero sentinel keeps it.
//
//ermvet:wire
type savedAgent struct {
	Cfg      Config
	Online   []byte // nn.MLP.Save wire
	Target   []byte
	Adam     nn.AdamState
	Steps    int // ε-schedule position
	OptSteps int // target-sync position
	RNG      [4]uint64
	Replay   *savedReplay
	PReplay  *savedPrioReplay
}

// SaveState serialises the complete training state of the agent: both
// networks, optimiser moments, replay contents, step counters and the
// RNG state. An agent restored with LoadAgentState continues training
// bit-identically to one that was never interrupted.
func (a *Agent) SaveState() ([]byte, error) {
	var online, target bytes.Buffer
	if err := a.online.Save(&online); err != nil {
		return nil, fmt.Errorf("rl: saving online net: %w", err)
	}
	if err := a.target.Save(&target); err != nil {
		return nil, fmt.Errorf("rl: saving target net: %w", err)
	}
	sa := savedAgent{
		Cfg:      a.cfg,
		Online:   online.Bytes(),
		Target:   target.Bytes(),
		Adam:     a.opt.State(a.online.Params()),
		Steps:    a.steps,
		OptSteps: a.optSteps,
		RNG:      a.rng.State(),
	}
	if a.preplay != nil {
		p := a.preplay
		sa.PReplay = &savedPrioReplay{
			Capacity: p.capacity,
			Pos:      p.pos,
			N:        p.n,
			MaxPrio:  p.maxPrio,
			Tree:     append([]float64(nil), p.tree...),
			Data:     append([]Transition(nil), p.data...),
		}
	} else {
		r := a.replay
		sa.Replay = &savedReplay{
			Cap: r.cap,
			Pos: r.pos,
			N:   r.n,
			Buf: append([]Transition(nil), r.buf...),
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sa); err != nil {
		return nil, fmt.Errorf("rl: encoding agent state: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadAgentState reconstructs an agent saved with SaveState.
func LoadAgentState(data []byte) (*Agent, error) {
	var sa savedAgent
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sa); err != nil {
		return nil, fmt.Errorf("rl: decoding agent state: %w", err)
	}
	if sa.Cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("rl: agent state has batch size %d", sa.Cfg.BatchSize)
	}
	online, err := nn.LoadMLP(bytes.NewReader(sa.Online))
	if err != nil {
		return nil, fmt.Errorf("rl: restoring online net: %w", err)
	}
	target, err := nn.LoadMLP(bytes.NewReader(sa.Target))
	if err != nil {
		return nil, fmt.Errorf("rl: restoring target net: %w", err)
	}
	rng := &detrand.RNG{}
	if err := rng.SetState(sa.RNG); err != nil {
		return nil, fmt.Errorf("rl: restoring RNG: %w", err)
	}
	a := &Agent{
		cfg:      sa.Cfg,
		online:   online,
		target:   target,
		opt:      nn.NewAdam(sa.Cfg.LR),
		rng:      rng,
		steps:    sa.Steps,
		optSteps: sa.OptSteps,
	}
	if err := a.opt.SetState(online.Params(), sa.Adam); err != nil {
		return nil, err
	}
	switch {
	case sa.PReplay != nil:
		p := sa.PReplay
		if p.Capacity <= 0 || len(p.Tree) != 2*p.Capacity || len(p.Data) != p.Capacity || !filledInOrder(p.Capacity, p.Pos, p.N) {
			return nil, fmt.Errorf("rl: prioritized replay state inconsistent (cap %d, tree %d, data %d, pos %d, n %d)",
				p.Capacity, len(p.Tree), len(p.Data), p.Pos, p.N)
		}
		a.preplay = &PrioritizedReplay{
			capacity: p.Capacity,
			alpha:    sa.Cfg.PrioritizedAlpha,
			tree:     append([]float64(nil), p.Tree...),
			data:     append([]Transition(nil), p.Data...),
			pos:      p.Pos,
			n:        p.N,
			maxPrio:  p.MaxPrio,
		}
	case sa.Replay != nil:
		r := sa.Replay
		if r.Cap <= 0 || len(r.Buf) != r.Cap || !filledInOrder(r.Cap, r.Pos, r.N) {
			return nil, fmt.Errorf("rl: replay state inconsistent (cap %d, buf %d, pos %d, n %d)",
				r.Cap, len(r.Buf), r.Pos, r.N)
		}
		a.replay = &Replay{
			buf: append([]Transition(nil), r.Buf...),
			cap: r.Cap,
			pos: r.Pos,
			n:   r.N,
		}
	default:
		return nil, fmt.Errorf("rl: agent state has no replay buffer")
	}
	a.allocBuffers()
	return a, nil
}

// filledInOrder reports whether a ring of the given capacity with write
// position pos holds n transitions in the order Add fills it: slots
// 0..n-1 until it is full, which the target row cache relies on.
func filledInOrder(capacity, pos, n int) bool {
	return pos >= 0 && pos < capacity && n >= 0 && n <= capacity && (n == capacity || pos == n)
}
