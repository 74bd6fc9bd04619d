package mdp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/rule"
)

// The environment's checkpoint wire format. Bit-identical resume needs
// the full mutable state of the environment, not just the agent:
//
//   - the reward cache R_Σ decides which Step calls hit the evaluator,
//     so restoring it reproduces the exact Evaluate-call pattern (and
//     with it Stats.Evaluations, the paper's #Explored metric);
//   - the per-episode tree (seen/queue/current) lets a run killed
//     mid-episode continue from the same tree position;
//   - allFound accumulates across episodes and is the mining result.
//
// The evaluator's master-index cache is deliberately NOT part of the
// state: it is a pure performance artifact, and a resumed run rebuilds
// indexes on demand. Consequently Stats.IndexBuilds and TuplesScanned
// may exceed the uninterrupted run's after a resume; Stats.Evaluations
// (the paper's #Explored) is driven by the reward cache and stays
// bit-identical.
//
// Rules are not serialised: every node key encodes its dimension set
// (two bytes per dimension, sorted), and replaying those refinements
// through core.Space.Refine rebuilds a structurally identical
// *rule.Rule — each step inserts its pair or condition in canonical
// order, so the rebuilt rule is indistinguishable from the original.
// Measures come back from the reward cache, which holds an entry for
// every key ever generated.
// All map-derived slices are sorted by key so the encoding itself is
// deterministic.

// cacheEntryWire is one R_Σ entry.
type cacheEntryWire struct {
	Key       string
	Support   int
	Certainty float64
	Quality   float64
	Utility   float64
	Reward    float64
}

// nodeWire is one rule-tree node. Cover distinguishes nil (never
// computed; the node was not refinable) from present via HasCover,
// because recomputing a cover on resume would perturb evaluator stats.
type nodeWire struct {
	Key       string
	Children  int
	Parent    string
	HasParent bool
	Cover     []int32
	HasCover  bool
}

// envWireVersion numbers the environment gob format, including the
// nested cache and node records; bump on any shape change (wiredrift
// gates it).
const envWireVersion = 1

// envWire is the gob wire format of Env's mutable state.
//
//ermvet:wire
type envWire struct {
	RewardCache []cacheEntryWire
	Nodes       []nodeWire // the episode's `seen` set, sorted by key
	Queue       []string   // node keys, in queue order
	Current     string
	HasCurrent  bool
	Found       []string // per-episode discoveries, sorted
	AllFound    []string // cross-episode discoveries, sorted
	Steps       int
	Discovered  int
	Done        bool
	EvalStats   measure.Stats
}

// SaveState serialises the environment's mutable state (tree, caches,
// counters, evaluator stats). The configuration and problem are not
// included: RestoreState must be called on an Env built with NewEnv
// from the same problem and Config.
func (e *Env) SaveState() ([]byte, error) {
	w := envWire{
		Steps:      e.steps,
		Discovered: e.discovered,
		Done:       e.done,
		EvalStats:  e.ev.Stats,
	}
	for key, cm := range e.rewardCache {
		w.RewardCache = append(w.RewardCache, cacheEntryWire{
			Key:       key,
			Support:   cm.support,
			Certainty: cm.certainty,
			Quality:   cm.quality,
			Utility:   cm.utility,
			Reward:    cm.reward,
		})
	}
	sort.Slice(w.RewardCache, func(i, j int) bool { return w.RewardCache[i].Key < w.RewardCache[j].Key })
	for key, n := range e.seen {
		nw := nodeWire{Key: key, Children: n.children}
		if n.parent != nil {
			nw.Parent = n.parent.key
			nw.HasParent = true
		}
		if n.cover != nil {
			// Copy: node covers live in the evaluator's reusable buffer
			// pool, and the wire snapshot must stay intact after the
			// next Reset recycles them.
			nw.Cover = append([]int32(nil), n.cover...)
			nw.HasCover = true
		}
		w.Nodes = append(w.Nodes, nw)
	}
	sort.Slice(w.Nodes, func(i, j int) bool { return w.Nodes[i].Key < w.Nodes[j].Key })
	for _, n := range e.queue {
		w.Queue = append(w.Queue, n.key)
	}
	if e.current != nil {
		w.Current = e.current.key
		w.HasCurrent = true
	}
	for key := range e.found {
		w.Found = append(w.Found, key)
	}
	sort.Strings(w.Found)
	for key := range e.allFound {
		w.AllFound = append(w.AllFound, key)
	}
	sort.Strings(w.AllFound)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("mdp: encoding env state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState replaces the environment's mutable state with one saved
// by SaveState. The receiver must have been built from the same problem
// and Config as the saving environment.
func (e *Env) RestoreState(data []byte) error {
	var w envWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("mdp: decoding env state: %w", err)
	}

	rc := make(map[string]cachedMeasures, len(w.RewardCache))
	for _, c := range w.RewardCache {
		rc[c.Key] = cachedMeasures{
			support:   c.Support,
			certainty: c.Certainty,
			quality:   c.Quality,
			utility:   c.Utility,
			reward:    c.Reward,
		}
	}

	seen := make(map[string]*node, len(w.Nodes))
	for _, nw := range w.Nodes {
		r, dims, err := e.buildRule(nw.Key)
		if err != nil {
			return err
		}
		n := &node{r: r, key: nw.Key, setDims: dims, children: nw.Children}
		if nw.HasCover {
			n.cover = nw.Cover
			if n.cover == nil {
				n.cover = []int32{} // gob decodes empty as nil
			}
		}
		seen[nw.Key] = n
	}
	for _, nw := range w.Nodes {
		if !nw.HasParent {
			continue
		}
		p, ok := seen[nw.Parent]
		if !ok {
			return fmt.Errorf("mdp: node %q references missing parent %q", nw.Key, nw.Parent)
		}
		seen[nw.Key].parent = p
	}

	queue := make([]*node, 0, len(w.Queue))
	for _, key := range w.Queue {
		n, ok := seen[key]
		if !ok {
			return fmt.Errorf("mdp: queued node %q not in tree", key)
		}
		queue = append(queue, n)
	}
	var current *node
	if w.HasCurrent {
		n, ok := seen[w.Current]
		if !ok {
			return fmt.Errorf("mdp: current node %q not in tree", w.Current)
		}
		current = n
	}

	found := make(map[string]core.MinedRule, len(w.Found))
	for _, key := range w.Found {
		n, ok := seen[key]
		if !ok {
			return fmt.Errorf("mdp: found rule %q not in tree", key)
		}
		mined, err := e.minedFrom(rc, key, n.r)
		if err != nil {
			return err
		}
		found[key] = mined
	}
	allFound := make(map[string]core.MinedRule, len(w.AllFound))
	for _, key := range w.AllFound {
		var r *rule.Rule
		if n, ok := seen[key]; ok {
			r = n.r
		} else {
			// Discovered in an earlier, already-torn-down episode.
			var err error
			r, _, err = e.buildRule(key)
			if err != nil {
				return err
			}
		}
		mined, err := e.minedFrom(rc, key, r)
		if err != nil {
			return err
		}
		allFound[key] = mined
	}

	e.rewardCache = rc
	e.seen = seen
	e.queue = queue
	e.current = current
	e.found = found
	e.allFound = allFound
	e.steps = w.Steps
	e.discovered = w.Discovered
	e.done = w.Done
	e.ev.Stats = w.EvalStats
	return nil
}

// minedFrom assembles a MinedRule from the restored reward cache, which
// holds an entry for every key the environment ever generated.
func (e *Env) minedFrom(rc map[string]cachedMeasures, key string, r *rule.Rule) (core.MinedRule, error) {
	cm, ok := rc[key]
	if !ok {
		return core.MinedRule{}, fmt.Errorf("mdp: discovered rule %q missing from reward cache", key)
	}
	return core.MinedRule{
		Rule: r,
		Measures: measure.Measures{
			Support:   cm.support,
			Certainty: cm.certainty,
			Quality:   cm.quality,
			Utility:   cm.utility,
		},
	}, nil
}

// buildRule decodes a node key into its dimension set and replays the
// refinements from the empty root rule.
func (e *Env) buildRule(key string) (*rule.Rule, []int, error) {
	if len(key)%2 != 0 {
		return nil, nil, fmt.Errorf("mdp: malformed node key (%d bytes)", len(key))
	}
	dims := make([]int, 0, len(key)/2)
	for i := 0; i < len(key); i += 2 {
		d := int(key[i]) | int(key[i+1])<<8
		if d >= e.space.Dim() {
			return nil, nil, fmt.Errorf("mdp: node key dimension %d outside space (dim %d)", d, e.space.Dim())
		}
		if len(dims) > 0 && d <= dims[len(dims)-1] {
			return nil, nil, fmt.Errorf("mdp: node key dimensions not strictly increasing")
		}
		dims = append(dims, d)
	}
	r := rule.New(nil, e.problem.Y, e.problem.Ym, nil)
	for _, d := range dims {
		next, ok := e.space.Refine(r, d)
		if !ok {
			return nil, nil, fmt.Errorf("mdp: node key replays invalid refinement on dimension %d", d)
		}
		r = next
	}
	if len(dims) == 0 {
		dims = nil
	}
	return r, dims, nil
}
