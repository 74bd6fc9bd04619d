// Package rlminer implements RLMiner (paper Alg. 3), the reinforcement-
// learning editing-rule discovery algorithm, and RLMiner-ft, its
// fine-tuning variant for incrementally enriched data (§V-D3).
//
// RLMiner trains a DQN agent over the rule-discovery MDP of package mdp
// for a fixed number of environment steps (5,000 by default, following
// the paper's §V-D4 protocol of training by steps rather than episodes),
// then runs one greedy inference episode whose discovered rules —
// filtered to the non-redundant top-K by utility — are the result.
package rlminer

import (
	"fmt"
	"time"

	"erminer/internal/clock"
	"erminer/internal/core"
	"erminer/internal/detrand"
	"erminer/internal/mdp"
	"erminer/internal/nn"
	"erminer/internal/rl"
)

// Config tunes RLMiner.
type Config struct {
	// Env configures the MDP environment.
	Env mdp.Config
	// Agent configures the DQN.
	Agent rl.Config
	// TrainSteps is the total training step budget N. Zero means 5000.
	TrainSteps int
	// FineTuneSteps is the budget used by MineFineTuned. Zero means 1000.
	FineTuneSteps int
	// InferenceOnly restricts the final selection to the rules the
	// greedy inference episode discovers. By default the selection pools
	// the above-threshold rules discovered across every training episode
	// as well — the reward cache R_Σ already holds their measures, and
	// pooling markedly reduces the seed-to-seed variance the paper notes
	// for RLMiner (§V-D2) without extra evaluation cost.
	InferenceOnly bool
	// Seed drives all randomness.
	Seed int64
	// Clock supplies the wall-clock readings behind Stats.TrainTime and
	// Stats.InferTime, and drives the periodic checkpointer. Nil means
	// the system clock. Everything else in a run is a pure function of
	// the problem and Seed.
	Clock clock.Clock
	// CheckpointPath, when non-empty, makes training write crash-safe
	// checkpoints (atomic temp-file+rename) to this file. A run resumed
	// from such a checkpoint with ResumeMine produces bit-identical
	// results to the uninterrupted run.
	CheckpointPath string
	// CheckpointEvery is the wall-clock period between checkpoint writes,
	// measured on Clock. Zero with CheckpointPath set (and no
	// CheckpointEverySteps) means 30s.
	CheckpointEvery time.Duration
	// CheckpointEverySteps, when positive, additionally checkpoints every
	// that many training steps — a deterministic trigger for tests and CI.
	CheckpointEverySteps int
	// Progress, when non-nil, is called after every completed training
	// step with the cumulative step count and the total budget.
	Progress func(step, total int)
}

func (c Config) trainSteps() int {
	if c.TrainSteps > 0 {
		return c.TrainSteps
	}
	return 5000
}

func (c Config) fineTuneSteps() int {
	if c.FineTuneSteps > 0 {
		return c.FineTuneSteps
	}
	return 1000
}

func (c Config) clock() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.System()
}

// inferenceMaxSteps bounds the greedy inference episode (the paper
// reports ~150 steps to mine top-K rules, §V-D4).
const inferenceMaxSteps = 300

// Stats reports one mining run's training and inference effort
// (paper Figure 12).
type Stats struct {
	// TrainSteps and Episodes count the training phase.
	TrainSteps int
	Episodes   int
	// TrainTime and InferTime are wall-clock durations.
	TrainTime time.Duration
	InferTime time.Duration
	// InferenceSteps counts the greedy episode's steps.
	InferenceSteps int
	// EpisodeRewards holds the summed reward of each training episode,
	// in order — the learning curve.
	EpisodeRewards []float64
	// MeanLoss is the mean Bellman error over training.
	MeanLoss float64
}

// Miner is the RL-based discovery algorithm.
type Miner struct {
	cfg   Config
	name  string
	net   *nn.MLP
	space *core.Space
	stats Stats
}

// New returns a fresh RLMiner (training from scratch).
func New(cfg Config) *Miner { return &Miner{cfg: cfg, name: "RLMiner"} }

// Name implements core.Miner.
func (m *Miner) Name() string { return m.name }

// Network returns the trained value network (nil before Mine).
func (m *Miner) Network() *nn.MLP { return m.net }

// TrainedSpace returns the refinement space the network was trained on.
func (m *Miner) TrainedSpace() *core.Space { return m.space }

// Stats returns the last run's statistics.
func (m *Miner) Stats() Stats { return m.stats }

// Mine implements core.Miner: train from scratch, then infer.
func (m *Miner) Mine(p *core.Problem) (*core.ResultSet, error) {
	return m.run(p, nil, nil, m.cfg.trainSteps(), nil)
}

// ResumeMine continues an interrupted run from a checkpoint and carries
// it through to the final result. The problem and Config must match the
// ones the checkpointing run used; the refinement space is verified
// dimension-by-dimension. The resumed run is bit-identical to one that
// was never interrupted, except that evaluator index caches start cold
// (Stats.Evaluations and the mined rules are unaffected; see
// mdp.Env.SaveState).
func (m *Miner) ResumeMine(p *core.Problem, ck *Checkpoint) (*core.ResultSet, error) {
	if ck == nil {
		return nil, fmt.Errorf("rlminer: nil checkpoint")
	}
	m.name = ck.w.Name
	return m.run(p, nil, nil, ck.w.TotalSteps, ck)
}

// MineFineTuned is RLMiner-ft: it transfers a previously trained network
// (from a Miner that ran on the pre-enrichment data) and fine-tunes it
// for a reduced step budget on the enriched problem. The network is
// adapted dimension-by-dimension when the enriched data changes the
// refinement space.
func (m *Miner) MineFineTuned(p *core.Problem, prev *Miner) (*core.ResultSet, error) {
	m.name = "RLMiner-ft"
	return m.run(p, prev.net, spaceDimIDs(prev.space), m.cfg.fineTuneSteps(), nil)
}

// MineFineTunedFromSaved is MineFineTuned for a model persisted with
// SaveModel — e.g. fine-tuning in a later process on enriched data.
func (m *Miner) MineFineTunedFromSaved(p *core.Problem, saved *SavedModel) (*core.ResultSet, error) {
	m.name = "RLMiner-ft"
	return m.run(p, saved.net, saved.dimIDs, m.cfg.fineTuneSteps(), nil)
}

func (m *Miner) run(p *core.Problem, prevNet *nn.MLP, prevDimIDs []string, steps int, ck *Checkpoint) (*core.ResultSet, error) {
	env, err := mdp.NewEnv(p, m.cfg.Env)
	if err != nil {
		return nil, err
	}

	m.stats = Stats{}
	var agent *rl.Agent
	var lossSum float64
	var lossN int
	var prevTrainTime time.Duration
	var state []float64
	var mask []bool
	n := 0
	episodeReward := 0.0
	inEpisode := false

	if ck != nil {
		if !sameIDs(ck.w.DimIDs, spaceDimIDs(env.Space())) {
			return nil, fmt.Errorf("rlminer: checkpoint refinement space does not match the problem's")
		}
		agent, err = rl.LoadAgentState(ck.w.AgentState)
		if err != nil {
			return nil, err
		}
		if err := env.RestoreState(ck.w.EnvState); err != nil {
			return nil, err
		}
		n = ck.w.Step
		m.stats.Episodes = ck.w.Episodes
		m.stats.EpisodeRewards = append([]float64(nil), ck.w.EpisodeRewards...)
		episodeReward = ck.w.EpisodeReward
		inEpisode = ck.w.InEpisode
		lossSum, lossN = ck.w.LossSum, ck.w.LossN
		prevTrainTime = ck.w.TrainTime
		if inEpisode {
			state, mask = env.State(), env.Mask()
		}
	} else {
		rng := detrand.New(m.cfg.Seed)
		agentCfg := m.cfg.Agent
		if agentCfg.EpsDecaySteps == 0 {
			agentCfg.EpsDecaySteps = steps * 6 / 10
		}
		if agentCfg.Hidden == nil {
			// Two hidden layers of 64 units match the paper's quality at the
			// problem's state widths while halving CPU training time.
			agentCfg.Hidden = []int{64, 64}
		}
		if prevNet != nil {
			net := adaptNetwork(rng, prevNet, prevDimIDs, env.Space())
			if agentCfg.EpsStart == 0 {
				// Fine-tuning explores less: the policy is already good.
				agentCfg.EpsStart = 0.2
			}
			agent = rl.NewAgentFrom(rng, net, agentCfg)
		} else {
			agent = rl.NewAgent(rng, env.StateDim(), env.ActionDim(), agentCfg)
		}
	}

	now := m.cfg.clock()
	start := now()
	ckEvery := m.cfg.CheckpointEvery
	if m.cfg.CheckpointPath != "" && ckEvery == 0 && m.cfg.CheckpointEverySteps == 0 {
		ckEvery = 30 * time.Second
	}
	lastCk := start

	// One iteration per training step: episode boundaries are handled
	// inside the loop so the run can checkpoint at any step with fully
	// consistent accounting (an episode is counted exactly when it ends).
	for n < steps {
		if !inEpisode {
			state, mask = env.Reset()
			episodeReward = 0
			inEpisode = true
		}
		a := agent.SelectAction(state, mask, agent.Epsilon())
		res := env.Step(a)
		agent.Observe(rl.Transition{
			State:    state,
			Action:   a,
			Reward:   res.Reward,
			Next:     res.State,
			NextMask: res.Mask,
			Done:     res.Done,
		})
		if l, stepped := agent.TrainStep(); stepped {
			lossSum += l
			lossN++
		}
		state, mask = res.State, res.Mask
		episodeReward += res.Reward
		n++
		if env.Done() {
			inEpisode = false
			m.stats.Episodes++
			m.stats.EpisodeRewards = append(m.stats.EpisodeRewards, episodeReward)
		}
		if m.cfg.Progress != nil {
			m.cfg.Progress(n, steps)
		}
		if m.cfg.CheckpointPath != "" && n < steps {
			write := m.cfg.CheckpointEverySteps > 0 && n%m.cfg.CheckpointEverySteps == 0
			if !write && ckEvery > 0 {
				if t := now(); t.Sub(lastCk) >= ckEvery {
					write = true
				}
			}
			if write {
				c, err := m.checkpoint(env, agent, n, steps, episodeReward, inEpisode,
					lossSum, lossN, prevTrainTime+now().Sub(start))
				if err != nil {
					return nil, err
				}
				if err := c.WriteFile(m.cfg.CheckpointPath); err != nil {
					return nil, err
				}
				lastCk = now()
			}
		}
	}
	// A final episode cut short by the step budget is NOT counted: its
	// partial reward would corrupt the tail of the learning curve
	// (Stats.EpisodeRewards is the paper's Fig. 12 input).
	m.stats.TrainSteps = n
	m.stats.TrainTime = prevTrainTime + now().Sub(start)
	if lossN > 0 {
		m.stats.MeanLoss = lossSum / float64(lossN)
	}

	// Greedy inference episode (ε = 0).
	inferStart := now()
	state, mask = env.Reset()
	inferSteps := 0
	for !env.Done() && inferSteps < inferenceMaxSteps {
		a := agent.SelectAction(state, mask, 0)
		res := env.Step(a)
		state, mask = res.State, res.Mask
		inferSteps++
	}
	m.stats.InferTime = now().Sub(inferStart)
	m.stats.InferenceSteps = inferSteps

	found := env.AllFound()
	if m.cfg.InferenceOnly {
		found = env.Found()
	}

	m.net = agent.Network()
	m.space = env.Space()

	return &core.ResultSet{
		Rules:    core.SelectTopK(found, p.K()),
		Explored: env.Evaluator().Stats.Evaluations,
	}, nil
}
