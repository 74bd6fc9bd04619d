package erminer

import (
	"fmt"

	"erminer/internal/cfd"
	"erminer/internal/cluster"
	"erminer/internal/core"
	"erminer/internal/datagen"
	"erminer/internal/enuminer"
	"erminer/internal/errgen"
	"erminer/internal/measure"
	"erminer/internal/metrics"
	"erminer/internal/relation"
	"erminer/internal/repair"
	"erminer/internal/rlminer"
	"erminer/internal/rule"
	"erminer/internal/schema"
	"erminer/internal/serve"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Problem is one editing-rule discovery instance (paper Problem 1).
	// Its Parallelism field sets the worker budget of EnuMiner's
	// parallel frontier (0 = all CPUs, 1 = serial; results are
	// bit-identical either way), and Problem.ShareIndexes equips it
	// with a shared master-index cache reused across mining, reward
	// queries and repair.
	Problem = core.Problem
	// IndexCache is the thread-safe, build-once master-index cache
	// shared by parallel evaluator shards. Attach one to a Problem with
	// Problem.ShareIndexes, or set the IndexCache field directly with
	// NewIndexCache to share indexes across problems over the same
	// master data.
	IndexCache = measure.IndexCache
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
	// Schema is an ordered attribute list.
	Schema = relation.Schema
	// Attribute describes one column.
	Attribute = relation.Attribute
	// Pool owns the shared value dictionaries of a dataset.
	Pool = relation.Pool
	// Delta is a batch of relation mutations (row appends + cell
	// updates) applied atomically by Relation.ApplyDelta. Codes must be
	// pre-interned with Dict.Code; Null is allowed.
	Delta = relation.Delta
	// CellUpdate overwrites one cell of an existing row with a
	// pre-interned code.
	CellUpdate = relation.CellUpdate
	// ChangeSet summarizes what a delta changed — appended row span and
	// updated columns — and drives incremental maintenance of derived
	// structures (IndexCache.ApplyDelta, ColumnIndex patching).
	ChangeSet = relation.ChangeSet
	// Match is the schema match M between input and master schemas.
	Match = schema.Match
	// Measures aggregates Support, Certainty, Quality and Utility.
	Measures = measure.Measures
	// PRF is a precision/recall/F-measure triple.
	PRF = metrics.PRF
	// RepairResult holds per-tuple predicted fixes.
	RepairResult = repair.Result
)

// Null is the dictionary code of a missing value.
const Null = relation.Null

// NewIndexCache returns an empty shared master-index cache (see the
// IndexCache alias).
func NewIndexCache() *IndexCache { return measure.NewIndexCache() }

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

// DatasetSpec selects dataset sizes and sampling.
type DatasetSpec struct {
	// InputSize and MasterSize are tuple counts; zero means the paper's
	// Table I sizes.
	InputSize, MasterSize int
	// DuplicateRate, when >= 0, fixes the fraction of input tuples that
	// correspond to master entities; negative means independent samples.
	DuplicateRate float64
	// Seed drives generation and sampling.
	Seed int64
}

// DatasetNames lists the built-in benchmark datasets: adult, covid,
// nursery, location.
func DatasetNames() []string { return datagen.AllNames() }

// BuildDataset materialises one of the built-in benchmark datasets.
func BuildDataset(name string, spec DatasetSpec) (*Dataset, error) {
	w, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	dr := spec.DuplicateRate
	if dr == 0 {
		dr = -1
	}
	ds, err := w.Build(datagen.Spec{
		InputSize:     spec.InputSize,
		MasterSize:    spec.MasterSize,
		DuplicateRate: dr,
		Seed:          spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds, Clean: ds.Input.Clone()}, nil
}

// Input returns the (mutable) input relation D.
func (d *Dataset) Input() *Relation { return d.inner.Input }

// Master returns the master relation D_m.
func (d *Dataset) Master() *Relation { return d.inner.Master }

// Match returns the schema match M.
func (d *Dataset) Match() *Match { return d.inner.Match }

// Y returns the dependent attribute index in the input schema.
func (d *Dataset) Y() int { return d.inner.Y }

// Ym returns the dependent attribute index in the master schema.
func (d *Dataset) Ym() int { return d.inner.Ym }

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.inner.Name }

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
	// per-request timeout, job pool, batch and body limits). The zero
	// value is fully usable.
	ServeConfig = serve.Config
	// Server is the rule-serving daemon, an http.Handler.
	Server = serve.Server
	// JobSpec describes one asynchronous mining job.
	JobSpec = serve.JobSpec
	// JobStatus is the externally visible snapshot of one mining job.
	JobStatus = serve.JobStatus
	// DataPatchRequest is the PATCH /v1/data wire format: a delta of
	// row appends and cell updates against the input or master
	// relation, optionally triggering an RLMiner-ft re-mining job.
	DataPatchRequest = serve.DataPatchRequest
	// DataPatchResponse reports what a data patch changed and the rule
	// generation left serving after incremental re-validation.
	DataPatchResponse = serve.DataPatchResponse
	// DataCell addresses one cell in a data patch ("" means Null).
	DataCell = serve.DataCellJSON
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
	// WorkerStatus is one worker's liveness and rule generation as seen
	// by the coordinator's health checker.
	WorkerStatus = cluster.WorkerStatus
)

// NewCoordinator builds the ermcluster coordinator over a worker fleet
// and starts its background health checker. Mount it on any net/http
// mux and stop it with Coordinator.Shutdown.
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) {
	return cluster.New(cfg)
}

// Validate sanity-checks a problem, returning a descriptive error for
// malformed inputs.
func Validate(p *Problem) error {
	if p == nil {
		return fmt.Errorf("erminer: nil problem")
	}
	return p.Validate()
}
