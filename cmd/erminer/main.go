// Command erminer mines editing rules — on a built-in benchmark dataset
// or on your own CSV files — and optionally repairs the dirty input with
// them.
//
// Benchmark mode:
//
//	erminer -dataset covid -method rlminer -k 20 -noise 0.1 -seed 1
//
// CSV mode (schema match inferred from value overlap unless -match is
// given):
//
//	erminer -input-csv shops.csv -master-csv directory.csv \
//	        -y postcode -ym postcode -match district=district,area=area
//
// Artifacts:
//
//	-export-rules rules.json    write discovered rules as portable JSON
//	-import-rules rules.json    load rules instead of mining (mine-free repair)
//	-mutate delta.json          apply a data delta (appends + cell updates, the
//	                            PATCH /v1/data wire format) before mining
//	-save-model model.bin       persist the RLMiner value network
//	-load-model model.bin       fine-tune a persisted model (RLMiner-ft)
//	-checkpoint-dir dir         crash-safe RLMiner training checkpoints; an
//	                            interrupted run auto-resumes bit-identically
//
// Methods: rlminer (default), enuminer, enuminerh3, ctane.
//
// EnuMiner expands its search frontier on one worker per CPU by default
// (-parallel 0); -parallel 1 forces the serial walk. Results are
// bit-identical at any worker count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"erminer"
)

type options struct {
	dataset    string
	method     string
	k          int
	noise      float64
	seed       int64
	input      int
	master     int
	eta        int
	steps      int
	parallel   int
	doRepair   bool
	verbose    bool
	inputCSV   string
	masterCSV  string
	y, ym      string
	match      string
	exportTo   string
	importFrom string
	mutate     string
	saveModel  string
	loadModel  string
	explain    int

	checkpointDir        string
	checkpointEvery      time.Duration
	checkpointEverySteps int
	crashAtStep          int
}

func main() {
	var o options
	flag.StringVar(&o.dataset, "dataset", "covid", "benchmark dataset: adult, covid, nursery or location")
	flag.StringVar(&o.method, "method", "rlminer", "miner: rlminer, enuminer, enuminerh3 or ctane")
	flag.IntVar(&o.k, "k", 50, "number of rules to discover (top-K)")
	flag.Float64Var(&o.noise, "noise", 0.10, "cell error-injection rate (benchmark mode)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.input, "input", 0, "input size (0 = paper default; benchmark mode)")
	flag.IntVar(&o.master, "master", 0, "master size (0 = paper default; benchmark mode)")
	flag.IntVar(&o.eta, "eta", 0, "support threshold (0 = dataset default)")
	flag.IntVar(&o.steps, "steps", 5000, "RLMiner training steps")
	flag.IntVar(&o.parallel, "parallel", 0, "EnuMiner frontier workers (0 = all CPUs, 1 = serial; results are identical at any setting)")
	flag.BoolVar(&o.doRepair, "repair", true, "apply rules and report results")
	flag.BoolVar(&o.verbose, "v", false, "print every discovered rule")
	flag.StringVar(&o.inputCSV, "input-csv", "", "input CSV path (enables CSV mode)")
	flag.StringVar(&o.masterCSV, "master-csv", "", "master CSV path (CSV mode)")
	flag.StringVar(&o.y, "y", "", "dependent input column (CSV mode)")
	flag.StringVar(&o.ym, "ym", "", "dependent master column (CSV mode)")
	flag.StringVar(&o.match, "match", "", "schema match as in1=ms1,in2=ms2 (CSV mode; empty = infer)")
	flag.StringVar(&o.exportTo, "export-rules", "", "write discovered rules to this JSON file")
	flag.StringVar(&o.importFrom, "import-rules", "", "load rules from this JSON file instead of mining (mine-free repair)")
	flag.StringVar(&o.mutate, "mutate", "", "apply a data delta from this JSON file before mining (PATCH /v1/data wire format: target, appends, updates)")
	flag.StringVar(&o.saveModel, "save-model", "", "persist the RLMiner value network to this file")
	flag.StringVar(&o.loadModel, "load-model", "", "fine-tune a persisted RLMiner model from this file")
	flag.IntVar(&o.explain, "explain", -1, "print the repair explanation for this tuple index")
	flag.StringVar(&o.checkpointDir, "checkpoint-dir", "", "directory for crash-safe RLMiner training checkpoints; an interrupted run auto-resumes from it")
	flag.DurationVar(&o.checkpointEvery, "checkpoint-every", 0, "wall-clock period between checkpoint writes (0 = 30s)")
	flag.IntVar(&o.checkpointEverySteps, "checkpoint-every-steps", 0, "additionally checkpoint every N training steps (0 = off)")
	flag.IntVar(&o.crashAtStep, "crash-at-step", 0, "exit(3) at this training step — fault injection for the checkpoint smoke test")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "erminer:", err)
		os.Exit(1)
	}
}

func run(o options) (err error) {
	var p *erminer.Problem
	var truth []int32

	if o.inputCSV != "" {
		if o.masterCSV == "" || o.y == "" || o.ym == "" {
			return fmt.Errorf("CSV mode needs -master-csv, -y and -ym")
		}
		var pairs map[string]string
		if o.match != "" {
			pairs = make(map[string]string)
			for _, kv := range strings.Split(o.match, ",") {
				in, ms, ok := strings.Cut(kv, "=")
				if !ok {
					return fmt.Errorf("bad -match entry %q (want in=ms)", kv)
				}
				pairs[in] = ms
			}
		}
		p, err = erminer.LoadCSVProblem(erminer.CSVSpec{
			InputPath:        o.inputCSV,
			MasterPath:       o.masterCSV,
			Y:                o.y,
			Ym:               o.ym,
			MatchPairs:       pairs,
			SupportThreshold: o.eta,
		})
		if err != nil {
			return err
		}
	} else {
		ds, err := erminer.BuildDataset(o.dataset, erminer.DatasetSpec{
			InputSize:  o.input,
			MasterSize: o.master,
			Seed:       o.seed,
		})
		if err != nil {
			return err
		}
		if o.noise > 0 {
			n := ds.InjectErrors(erminer.NoiseConfig{Rate: o.noise, Seed: o.seed + 1})
			fmt.Printf("injected %d cell errors at rate %.2f\n", n, o.noise)
		}
		p = ds.Problem(o.eta)
		truth = ds.Truth()
	}
	p.TopK = o.k
	p.Parallelism = o.parallel
	if o.mutate != "" {
		if err := applyMutation(p, o.mutate); err != nil {
			return err
		}
	}
	// One shared master-index cache across mining, reward queries,
	// repair and explanations: no component rebuilds another's indexes.
	p.ShareIndexes()
	fmt.Printf("problem: input %d×%d, master %d×%d, |M|=%d, η_s=%d, K=%d, workers=%d\n",
		p.Input.NumRows(), p.Input.Schema().Len(),
		p.Master.NumRows(), p.Master.Schema().Len(),
		p.Match.Size(), p.SupportThreshold, p.K(), p.Workers())

	var res *erminer.ResultSet
	var rlm *erminer.RLMiner
	if o.importFrom != "" {
		if o.saveModel != "" || o.loadModel != "" {
			return fmt.Errorf("-import-rules cannot be combined with -save-model/-load-model")
		}
		data, err := os.ReadFile(o.importFrom)
		if err != nil {
			return err
		}
		rules, err := erminer.ImportRules(p, data)
		if err != nil {
			return err
		}
		res = &erminer.ResultSet{Rules: rules}
		fmt.Printf("imported %d rules from %s (mine-free run)\n", len(rules), o.importFrom)
		return finish(o, p, res, truth)
	}
	name := strings.ToLower(o.method)
	start := time.Now()
	switch name {
	case "rlminer":
		cfg := erminer.RLMinerConfig{TrainSteps: o.steps, Seed: o.seed}
		var ckPath string
		if o.checkpointDir != "" {
			if err := os.MkdirAll(o.checkpointDir, 0o755); err != nil {
				return err
			}
			ckPath = filepath.Join(o.checkpointDir, "erminer.ckpt")
			cfg.CheckpointPath = ckPath
			cfg.CheckpointEvery = o.checkpointEvery
			cfg.CheckpointEverySteps = o.checkpointEverySteps
		}
		if o.crashAtStep > 0 {
			cfg.Progress = func(step, total int) {
				if step == o.crashAtStep {
					fmt.Fprintf(os.Stderr, "erminer: injected crash at training step %d/%d\n", step, total)
					os.Exit(3)
				}
			}
		}
		rlm = erminer.NewRLMiner(cfg)
		switch {
		case o.loadModel != "":
			saved, err := loadModelFile(o.loadModel)
			if err != nil {
				return err
			}
			res, err = rlm.MineFineTunedFromSaved(p, saved)
			if err != nil {
				return err
			}
		case ckPath != "":
			ck, ckErr := erminer.ReadCheckpointFile(ckPath)
			if ckErr == nil {
				fmt.Printf("resuming from checkpoint %s (%s, step %d/%d)\n",
					ckPath, ck.Name(), ck.Step(), ck.TotalSteps())
				res, err = rlm.ResumeMine(p, ck)
			} else {
				res, err = rlm.Mine(p)
			}
			if err != nil {
				return err
			}
		default:
			res, err = rlm.Mine(p)
			if err != nil {
				return err
			}
		}
		if ckPath != "" {
			//ermvet:ignore errdrop best-effort cleanup; the run completed, its checkpoint is obsolete
			os.Remove(ckPath)
		}
	case "enuminer":
		res, err = erminer.NewEnuMiner(erminer.EnuMinerConfig{}).Mine(p)
	case "enuminerh3":
		res, err = erminer.NewEnuMinerH3(erminer.EnuMinerConfig{}).Mine(p)
	case "ctane":
		res, err = erminer.NewCTANE(erminer.CTANEConfig{}).Mine(p)
	default:
		return fmt.Errorf("unknown method %q", o.method)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s discovered %d rules in %v (explored %d candidates)\n",
		o.method, len(res.Rules), time.Since(start).Round(time.Millisecond), res.Explored)

	if o.saveModel != "" {
		if rlm == nil {
			return fmt.Errorf("-save-model requires -method rlminer")
		}
		f, err := os.Create(o.saveModel)
		if err != nil {
			return err
		}
		if err := erminer.SaveModel(rlm, f); err != nil {
			//ermvet:ignore errdrop the save error is already being returned; close failure is secondary
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved model to %s\n", o.saveModel)
	}
	return finish(o, p, res, truth)
}

// finish runs the shared post-mining pipeline — rule listing, export,
// explanation and repair — for both mined and imported rule sets.
func finish(o options, p *erminer.Problem, res *erminer.ResultSet, truth []int32) error {
	show := len(res.Rules)
	if !o.verbose && show > 10 {
		show = 10
	}
	for i := 0; i < show; i++ {
		r := res.Rules[i]
		fmt.Printf("  #%-3d U=%-8.2f S=%-6d C=%.3f Q=%+.3f  %s\n",
			i+1, r.Measures.Utility, r.Measures.Support,
			r.Measures.Certainty, r.Measures.Quality,
			erminer.FormatRule(p, r.Rule))
	}
	if show < len(res.Rules) {
		fmt.Printf("  ... %d more (use -v to print all)\n", len(res.Rules)-show)
	}

	if o.exportTo != "" {
		data, err := erminer.ExportRules(p, res.Rules)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.exportTo, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("exported rules to %s\n", o.exportTo)
	}

	if o.explain >= 0 {
		if o.explain >= p.Input.NumRows() {
			return fmt.Errorf("-explain %d out of range (%d tuples)", o.explain, p.Input.NumRows())
		}
		exp := erminer.Explain(p, res.Rules, o.explain)
		fmt.Print(exp.Format(p.Input, p.Master.Schema(), p.Y))
	}

	if o.doRepair {
		fixes := erminer.Repair(p, res.Rules)
		fmt.Printf("repair: covered %d/%d tuples\n", fixes.Covered, p.Input.NumRows())
		if truth != nil {
			prf := erminer.Evaluate(fixes.Pred, truth)
			fmt.Printf("repair quality: weighted P=%.3f R=%.3f F1=%.3f\n",
				prf.Precision, prf.Recall, prf.F1)
		}
	}
	return nil
}

func loadModelFile(path string) (*erminer.SavedModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//ermvet:ignore errdrop read-only descriptor; closing cannot lose data
	defer f.Close()
	return erminer.LoadModel(f)
}

// applyMutation applies a data delta from a JSON file in the daemon's
// PATCH /v1/data wire format — {"target": "input"|"master", "appends":
// [{col: val}], "updates": [{"row", "attr", "value"}]} — to the loaded
// problem before mining, so an offline run can reproduce exactly what
// a patched daemon would see. An empty value means Null.
func applyMutation(p *erminer.Problem, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m struct {
		Target  string              `json:"target"`
		Appends []map[string]string `json:"appends"`
		Updates []struct {
			Row   int    `json:"row"`
			Attr  string `json:"attr"`
			Value string `json:"value"`
		} `json:"updates"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("mutation file %s: %w", path, err)
	}
	var rel *erminer.Relation
	switch strings.ToLower(m.Target) {
	case "input":
		rel = p.Input
	case "master":
		rel = p.Master
	default:
		return fmt.Errorf("mutation file %s: target %q (want input or master)", path, m.Target)
	}
	sc := rel.Schema()
	var d erminer.Delta
	for _, row := range m.Appends {
		codes := make([]int32, sc.Len())
		for i := range codes {
			codes[i] = erminer.Null
		}
		for name, v := range row {
			idx := sc.Index(name)
			if idx < 0 {
				return fmt.Errorf("mutation file %s: unknown column %q", path, name)
			}
			if v != "" {
				codes[idx] = rel.Dict(idx).Code(v)
			}
		}
		d.Appends = append(d.Appends, codes)
	}
	for _, u := range m.Updates {
		idx := sc.Index(u.Attr)
		if idx < 0 {
			return fmt.Errorf("mutation file %s: unknown column %q", path, u.Attr)
		}
		code := erminer.Null
		if u.Value != "" {
			code = rel.Dict(idx).Code(u.Value)
		}
		d.Updates = append(d.Updates, erminer.CellUpdate{Row: u.Row, Col: idx, Code: code})
	}
	cs, err := rel.ApplyDelta(d)
	if err != nil {
		return fmt.Errorf("mutation file %s: %w", path, err)
	}
	fmt.Printf("mutated %s: +%d rows, %d columns updated (now %d rows, version %d)\n",
		strings.ToLower(m.Target), cs.Appended, len(cs.Cols), rel.NumRows(), rel.Version())
	return nil
}
