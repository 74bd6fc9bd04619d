package erminer

import (
	"erminer/internal/cfd"
	"erminer/internal/cluster"
	"erminer/internal/core"
	"erminer/internal/datagen"
	"erminer/internal/enuminer"
	"erminer/internal/errgen"
	"erminer/internal/metrics"
	"erminer/internal/relation"
	"erminer/internal/repair"
	"erminer/internal/rlminer"
	"erminer/internal/rule"
	"erminer/internal/serve"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Problem is one editing-rule discovery instance (paper Problem 1).
	// Its Parallelism field sets the worker budget of EnuMiner's
	// level-synchronized frontier (0 = all CPUs; results are
	// bit-identical at any count), and Problem.ShareIndexes equips it
	// with a shared master-index cache reused across mining, reward
	// queries and repair.
	Problem = core.Problem
	// Miner is a rule-discovery algorithm.
	Miner = core.Miner
	// MinedRule pairs a discovered rule with its measures.
	MinedRule = core.MinedRule
	// ResultSet is the output of one mining run.
	ResultSet = core.ResultSet
	// Rule is one editing rule φ = ((X, X_m) → (Y, Y_m), t_p).
	Rule = rule.Rule
	// Relation is a dictionary-encoded, column-oriented table.
	Relation = relation.Relation
	// PRF is a precision/recall/F-measure triple.
	PRF = metrics.PRF
	// RepairResult holds per-tuple predicted fixes.
	RepairResult = repair.Result
)

// Null is the dictionary code of a missing value.
const Null = relation.Null

// EnuMinerConfig configures the enumeration miner.
type EnuMinerConfig = enuminer.Config

// NewEnuMiner returns the exhaustive enumeration miner (paper §II-D).
func NewEnuMiner(cfg EnuMinerConfig) Miner { return enuminer.New(cfg) }

// NewEnuMinerH3 returns EnuMinerH3, the length-3-bounded heuristic
// variant (paper §V-D2).
func NewEnuMinerH3(cfg EnuMinerConfig) Miner { return enuminer.NewH3(cfg) }

// RLMinerConfig configures the reinforcement-learning miner.
type RLMinerConfig = rlminer.Config

// RLMiner is the reinforcement-learning miner (paper Alg. 3). Beyond the
// Miner interface it supports fine-tuning via MineFineTuned and exposes
// training statistics via Stats.
type RLMiner = rlminer.Miner

// NewRLMiner returns the RL-based miner, the paper's main contribution.
func NewRLMiner(cfg RLMinerConfig) *RLMiner { return rlminer.New(cfg) }

// CTANEConfig configures the CFD-discovery baseline.
type CTANEConfig = cfd.Config

// NewCTANE returns the CFD-discovery baseline miner (constant CFDs mined
// on master data and converted to editing rules).
func NewCTANE(cfg CTANEConfig) Miner { return cfd.New(cfg) }

// Dataset bundles a generated benchmark dataset: clean input, master
// data, schema match and dependent attribute pair.
type Dataset struct {
	inner *datagen.Dataset
	// Clean is the input relation before any error injection.
	Clean *Relation
}

// DatasetSpec selects dataset sizes. Input and master are sampled
// independently from the dataset's world (§V-A1).
type DatasetSpec struct {
	// InputSize and MasterSize are tuple counts; zero means the paper's
	// Table I sizes.
	InputSize, MasterSize int
	// Seed drives generation and sampling.
	Seed int64
}

// BuildDataset materialises one of the built-in benchmark datasets.
func BuildDataset(name string, spec DatasetSpec) (*Dataset, error) {
	w, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	ds, err := w.Build(datagen.DefaultSpec(spec.InputSize, spec.MasterSize, spec.Seed))
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds, Clean: ds.Input.Clone()}, nil
}

// Input returns the (mutable) input relation D.
func (d *Dataset) Input() *Relation { return d.inner.Input }

// Master returns the master relation D_m.
func (d *Dataset) Master() *Relation { return d.inner.Master }

// Y returns the dependent attribute index in the input schema.
func (d *Dataset) Y() int { return d.inner.Y }

// Problem builds the discovery problem for this dataset. A zero support
// threshold selects the dataset's size-scaled default η_s.
func (d *Dataset) Problem(supportThreshold int) *Problem {
	if supportThreshold == 0 {
		supportThreshold = d.inner.SupportThreshold
	}
	return &Problem{
		Input:            d.inner.Input,
		Master:           d.inner.Master,
		Match:            d.inner.Match,
		Y:                d.inner.Y,
		Ym:               d.inner.Ym,
		SupportThreshold: supportThreshold,
	}
}

// Truth returns the ground-truth codes of the dependent column (from the
// clean copy taken before error injection).
func (d *Dataset) Truth() []int32 {
	return errgen.TruthColumn(d.Clean, d.inner.Y)
}

// NoiseConfig controls error injection.
type NoiseConfig struct {
	// Rate is the per-cell corruption probability.
	Rate float64
	// Cols restricts injection to these columns; nil means all.
	Cols []int
	// Seed drives the randomness.
	Seed int64
}

// InjectErrors corrupts the dataset's input relation in place (BART-style
// typos, substitutions and missing values) and returns the number of
// corrupted cells. The clean copy in d.Clean is unaffected.
func (d *Dataset) InjectErrors(cfg NoiseConfig) int {
	errs := errgen.Inject(d.inner.Input, errgen.Config{
		Rate: cfg.Rate,
		Cols: cfg.Cols,
		Rng:  newRand(cfg.Seed),
	})
	return len(errs)
}

// Repair applies a mined rule set to the problem's input relation,
// returning per-tuple candidate fixes aggregated across rules by summed
// certainty score (paper §V-B2).
func Repair(p *Problem, rules []MinedRule) RepairResult {
	rs := &ResultSet{Rules: rules}
	return repair.Apply(p.NewEvaluator(), rs.RuleList())
}

// WriteFixes writes predicted fixes into the relation's dependent column;
// onlyMissing restricts to Null cells (imputation). Returns cells changed.
func WriteFixes(rel *Relation, y int, res RepairResult, onlyMissing bool) int {
	return repair.WriteFixes(rel, y, res, onlyMissing)
}

// Evaluate scores predictions against truths with the paper's weighted
// precision / recall / F-measure (§V-A2).
func Evaluate(pred, truth []int32) PRF {
	return metrics.Weighted(pred, truth)
}

// FormatRule renders a rule with attribute names and values.
func FormatRule(p *Problem, r *Rule) string {
	return r.String(p.Input, p.Master.Schema())
}

// Serving handles. The online rule-serving and repair daemon
// (cmd/erminerd) is built from these: a Server holds one problem's
// master data, answers POST /v1/repair and /v1/validate over arriving
// dirty tuples, mines new rule sets on an asynchronous worker pool
// (POST /v1/jobs) and hot-swaps the active set with zero downtime
// (PUT /v1/rules). See internal/serve for the endpoint contract.
type (
	// ServeConfig tunes the daemon (worker pool, bounded queue,
	// per-request timeout, job pool, batch limit). The zero value is
	// fully usable.
	ServeConfig = serve.Config
	// Server is the rule-serving daemon, an http.Handler.
	Server = serve.Server
	// DataPatchRequest is the PATCH /v1/data wire format: a delta of
	// row appends and cell updates against the input or master
	// relation, optionally triggering an RLMiner-ft re-mining job.
	DataPatchRequest = serve.DataPatchRequest
)

// NewServer builds the rule-serving daemon over a problem. rules may be
// nil to start without an active rule set; activate one later through a
// mining job or PUT /v1/rules. Mount the server on any net/http mux and
// stop it with Server.Shutdown.
func NewServer(p *Problem, rules []MinedRule, cfg ServeConfig) (*Server, error) {
	return serve.New(p, rules, cfg)
}

// Cluster handles. The sharded serving cluster (ermcluster) fronts N
// erminerd workers with a stateless coordinator that speaks the same
// /v1/repair and /v1/validate API, hash-partitions each batch across
// the fleet, and merges the sub-responses byte-identically to a single
// node; PUT /v1/rules replicates rule-set generations to every worker
// with a two-phase stage/activate push. See internal/cluster for the
// topology and failure semantics.
type (
	// ClusterConfig tunes the coordinator (worker URLs, per-worker
	// timeout, retry budget, health-check period). Workers is required;
	// everything else has usable defaults.
	ClusterConfig = cluster.Config
	// Coordinator is the cluster front door, an http.Handler.
	Coordinator = cluster.Coordinator
)

// NewCoordinator builds the ermcluster coordinator over a worker fleet
// and starts its background health checker. Mount it on any net/http
// mux and stop it with Coordinator.Shutdown.
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) {
	return cluster.New(cfg)
}
