package rlminer

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"erminer/internal/mdp"
	"erminer/internal/rl"
)

// Checkpoint is the crash-safe snapshot of an in-flight RLMiner run:
// the complete agent state (networks, optimiser moments, replay buffer,
// RNG, counters), the environment state (rule tree, reward cache,
// cross-episode discoveries, evaluator stats), the step position, and
// the partial Stats accumulated so far. Resuming from it with
// Miner.ResumeMine reproduces the uninterrupted run bit-for-bit. It
// holds its gob form, which Save writes and LoadCheckpoint reads as is.
type Checkpoint struct {
	w checkpointWire
}

// Name returns the miner variant that wrote the checkpoint ("RLMiner"
// or "RLMiner-ft").
func (c *Checkpoint) Name() string { return c.w.Name }

// Step returns the training step the checkpoint was taken at.
func (c *Checkpoint) Step() int { return c.w.Step }

// TotalSteps returns the run's full training budget.
func (c *Checkpoint) TotalSteps() int { return c.w.TotalSteps }

// checkpointWireVersion numbers the checkpoint gob format. Bump it on
// any shape change so ermvet's wiredrift gate can tell a deliberate
// format break from an accidental one.
const checkpointWireVersion = 1

// checkpointWire is the gob format.
//
//ermvet:wire
type checkpointWire struct {
	Name           string
	Seed           int64
	DimIDs         []string
	Step           int
	TotalSteps     int
	Episodes       int
	EpisodeRewards []float64
	EpisodeReward  float64 // partial reward of the in-flight episode
	InEpisode      bool
	LossSum        float64
	LossN          int
	TrainTime      time.Duration
	AgentState     []byte
	EnvState       []byte
}

// checkpoint captures the run's current state as a Checkpoint.
func (m *Miner) checkpoint(env *mdp.Env, agent *rl.Agent, step, total int,
	episodeReward float64, inEpisode bool, lossSum float64, lossN int,
	trainTime time.Duration) (*Checkpoint, error) {
	agentState, err := agent.SaveState()
	if err != nil {
		return nil, err
	}
	envState, err := env.SaveState()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{w: checkpointWire{
		Name:           m.name,
		Seed:           m.cfg.Seed,
		DimIDs:         spaceDimIDs(env.Space()),
		Step:           step,
		TotalSteps:     total,
		Episodes:       m.stats.Episodes,
		EpisodeRewards: append([]float64(nil), m.stats.EpisodeRewards...),
		EpisodeReward:  episodeReward,
		InEpisode:      inEpisode,
		LossSum:        lossSum,
		LossN:          lossN,
		TrainTime:      trainTime,
		AgentState:     agentState,
		EnvState:       envState,
	}}, nil
}

// Save serialises the checkpoint.
func (c *Checkpoint) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(c.w); err != nil {
		return fmt.Errorf("rlminer: saving checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint saved with Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	c := &Checkpoint{}
	if err := gob.NewDecoder(r).Decode(&c.w); err != nil {
		return nil, fmt.Errorf("rlminer: loading checkpoint: %w", err)
	}
	if c.w.Step < 0 || c.w.TotalSteps <= 0 || c.w.Step > c.w.TotalSteps {
		return nil, fmt.Errorf("rlminer: checkpoint step %d/%d out of range", c.w.Step, c.w.TotalSteps)
	}
	if len(c.w.AgentState) == 0 || len(c.w.EnvState) == 0 {
		return nil, fmt.Errorf("rlminer: checkpoint missing agent or environment state")
	}
	return c, nil
}

// WriteFile writes the checkpoint to path atomically: the bytes go to a
// temp file in the same directory, are fsynced, and the file is renamed
// over path. A crash mid-write leaves the previous checkpoint intact; a
// reader never observes a partial file.
func (c *Checkpoint) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("rlminer: creating checkpoint temp file: %w", err)
	}
	//ermvet:ignore errdrop best-effort temp cleanup; after a successful rename the file is gone
	defer os.Remove(tmp.Name())
	if err := c.Save(tmp); err != nil {
		//ermvet:ignore errdrop the save error is already being returned; close failure is secondary
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		//ermvet:ignore errdrop the sync error is already being returned; close failure is secondary
		tmp.Close()
		return fmt.Errorf("rlminer: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("rlminer: closing checkpoint temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rlminer: publishing checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointFile loads a checkpoint written with WriteFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("rlminer: opening checkpoint: %w", err)
	}
	//ermvet:ignore errdrop read-only descriptor; closing cannot lose data
	defer f.Close()
	return LoadCheckpoint(f)
}
