package erminer

import (
	"io"

	"erminer/internal/core"
	"erminer/internal/repair"
	"erminer/internal/rlminer"
)

// ChaseTarget is one dependent attribute with its rule set for
// multi-attribute chase repair.
type ChaseTarget = repair.Target

// ChaseResult reports a chase run.
type ChaseResult = repair.ChaseResult

// Chase repairs several attributes of the input relation iteratively
// (the certain-fix chase of Fan et al. that editing rules were designed
// for): a fix on one attribute can provide the join evidence another
// attribute's rules need, so the targets are re-applied round by round
// until a fixpoint. Each cell is fixed at most once, guaranteeing
// termination. The input relation is modified in place.
func Chase(input, master *Relation, targets []ChaseTarget, maxRounds int) ChaseResult {
	return repair.Chase(input, master, targets, maxRounds)
}

// Explanation justifies the fix proposed for one tuple: the covering
// rules, their candidates and the certainty-score arithmetic.
type Explanation = repair.Explanation

// Explain reconstructs why the rule set proposes its fix for input tuple
// row — the interpretability rule-based cleaning is chosen for. Render
// it with Explanation.Format.
func Explain(p *Problem, rules []MinedRule, row int) Explanation {
	rs := &ResultSet{Rules: rules}
	return repair.Explain(p.NewEvaluator(), rs.RuleList(), row)
}

// SavedModel is a persisted RLMiner value network plus the refinement
// dimensions it was trained on.
type SavedModel = rlminer.SavedModel

// SaveModel persists a trained RLMiner's value network for later
// fine-tuning (possibly in another process).
func SaveModel(m *RLMiner, w io.Writer) error { return m.SaveModel(w) }

// LoadModel reads a model persisted with SaveModel.
func LoadModel(r io.Reader) (*SavedModel, error) { return rlminer.LoadModel(r) }

// Checkpoint is a crash-safe snapshot of an in-flight RLMiner training
// run, written periodically when RLMinerConfig.CheckpointPath is set.
// Resuming from it with RLMiner.ResumeMine reproduces the uninterrupted
// run bit-for-bit.
type Checkpoint = rlminer.Checkpoint

// ReadCheckpointFile loads a training checkpoint from disk.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	return rlminer.ReadCheckpointFile(path)
}

var _ core.Miner = (*rlminer.Miner)(nil)
