package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"erminer"
	"erminer/internal/core"
	"erminer/internal/enuminer"
	"erminer/internal/experiments"
	"erminer/internal/relation"
	"erminer/internal/rulesio"
	"erminer/internal/serve"
)

// The problem every workload runs on: the covid dataset at bench scale
// (paper Table I sizes), 10% cell noise, top-50 rules. The instance is
// always the one datasetSeed builds: regenerating it per run seed moves
// the mined rules, and with them the work in a request, by ±15% from
// seed to seed, more than the regression bounds. The run seed instead
// shuffles the rows of both files and draws the request pools, the
// PATCH deltas and RLMiner's training seeds.
const (
	datasetSeed = 1
	inputRows   = 2500
	masterRows  = 1824
	cellNoise   = 0.1
	topK        = 50
	poolBatches = 32
	// heldOutMaster rows are kept out of the served master data on
	// repair-patch, to be appended two per PATCH.
	heldOutMaster = 250
)

// inputs are the generated files and request pools of one run. The
// programs under test see only the files; truth stays with the bench.
type inputs struct {
	inputCSV, masterCSV, rulesJSON string
	match                          map[string]string // input column → master column
	y, ym                          string
	eta                            int

	header  []string   // input column names
	rows    [][]string // dirty input rows as served
	truth   []string   // clean Y value of each input row
	dirtyY  []int      // rows whose Y is wrong or missing
	mHeader []string   // master column names
	mRows   [][]string // served master rows
	heldOut [][]string // master rows kept back for PATCH appends
}

// makeInputs builds the instance, writes its rows in the seed's order
// to input.csv and master.csv, mines rules.json (the EnuMiner-H3 top-50
// on exactly those files) into dir, and keeps the truth for quality
// scoring. The last holdOut master rows are left out of master.csv.
func makeInputs(dir string, seed int64, holdOut int) (*inputs, error) {
	cfg := &experiments.Config{Scale: experiments.ScaleBench}
	spec := experiments.NewInstanceSpec("covid", datasetSeed)
	spec.InputSize, spec.MasterSize, spec.NoiseRate, spec.TopK = inputRows, masterRows, cellNoise, topK
	inst, err := cfg.BuildInstance(spec)
	if err != nil {
		return nil, fmt.Errorf("building the covid instance: %w", err)
	}
	p := inst.Problem
	in := &inputs{
		inputCSV:  filepath.Join(dir, "input.csv"),
		masterCSV: filepath.Join(dir, "master.csv"),
		rulesJSON: filepath.Join(dir, "rules.json"),
		match:     make(map[string]string),
		y:         p.Input.Schema().Attr(p.Y).Name,
		ym:        p.Master.Schema().Attr(p.Ym).Name,
		eta:       p.SupportThreshold,
		header:    p.Input.Schema().Names(),
		mHeader:   p.Master.Schema().Names(),
	}
	for _, pr := range p.Match.Pairs() {
		in.match[p.Input.Schema().Attr(pr[0]).Name] = p.Master.Schema().Attr(pr[1]).Name
	}
	rng := rand.New(rand.NewSource(seed))
	for i, row := range rng.Perm(p.Input.NumRows()) {
		in.rows = append(in.rows, p.Input.RowStrings(row))
		in.truth = append(in.truth, inst.Clean.Value(row, p.Y))
		if p.Input.Code(row, p.Y) != inst.Clean.Code(row, p.Y) {
			in.dirtyY = append(in.dirtyY, i)
		}
	}
	served := p.Master.NumRows() - holdOut
	for i, row := range rng.Perm(p.Master.NumRows()) {
		if i < served {
			in.mRows = append(in.mRows, p.Master.RowStrings(row))
		} else {
			in.heldOut = append(in.heldOut, p.Master.RowStrings(row))
		}
	}
	if err := writeCSV(in.inputCSV, in.header, in.rows); err != nil {
		return nil, err
	}
	if err := writeCSV(in.masterCSV, in.mHeader, in.mRows); err != nil {
		return nil, err
	}

	mp, err := in.loadProblem()
	if err != nil {
		return nil, err
	}
	res, err := enuminer.NewH3(enuminer.Config{}).Mine(mp)
	if err != nil {
		return nil, fmt.Errorf("mining the served rule set: %w", err)
	}
	data, err := rulesio.Export(mp, res.Rules)
	if err != nil {
		return nil, fmt.Errorf("exporting the served rule set: %w", err)
	}
	if err := os.WriteFile(in.rulesJSON, data, 0o644); err != nil {
		return nil, fmt.Errorf("writing rules: %w", err)
	}
	return in, nil
}

func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		//ermvet:ignore errdrop the write error is already being returned; close failure is secondary
		f.Close()
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	if err := w.WriteAll(rows); err != nil {
		//ermvet:ignore errdrop the write error is already being returned; close failure is secondary
		f.Close()
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// matchFlag renders the schema match for erminerd's -match flag, in a
// fixed order. It is passed explicitly because inference from the CSVs
// finds only four of the five pairs.
func (in *inputs) matchFlag() string {
	var kv []string
	for a, m := range in.match {
		kv = append(kv, a+"="+m)
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}

// daemonArgs are the problem flags of every serving daemon.
func (in *inputs) daemonArgs() []string {
	return []string{
		"-input-csv", in.inputCSV, "-master-csv", in.masterCSV,
		"-y", in.y, "-ym", in.ym, "-eta", fmt.Sprint(in.eta),
		"-match", in.matchFlag(), "-rules", in.rulesJSON,
	}
}

// loadProblem loads the problem from the written CSVs exactly as
// erminerd does.
func (in *inputs) loadProblem() (*core.Problem, error) {
	match := make(map[string]string, len(in.match))
	for a, m := range in.match {
		match[a] = m
	}
	p, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath: in.inputCSV, MasterPath: in.masterCSV,
		Y: in.y, Ym: in.ym, MatchPairs: match, SupportThreshold: in.eta,
	})
	if err != nil {
		return nil, fmt.Errorf("loading the CSV problem: %w", err)
	}
	p.TopK = topK
	return p, nil
}

// loadServing loads the problem and the served rules the way erminerd
// does at startup.
func (in *inputs) loadServing() (*core.Problem, []core.MinedRule, error) {
	p, err := in.loadProblem()
	if err != nil {
		return nil, nil, err
	}
	p.ShareIndexes()
	data, err := os.ReadFile(in.rulesJSON)
	if err != nil {
		return nil, nil, fmt.Errorf("reading rules: %w", err)
	}
	rules, err := rulesio.Import(p, data)
	if err != nil {
		return nil, nil, fmt.Errorf("importing rules: %w", err)
	}
	return p, rules, nil
}

// batch is one request of a pool: its body and the input rows it holds.
type batch struct {
	body []byte
	rows []int
}

// pool draws poolBatches distinct request batches of size tuples. The
// repair pools draw from rows whose Y is wrong or missing, where a fix
// is due; the validation pool samples the whole dirty input.
func (in *inputs) pool(seed int64, w workload) ([]batch, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(w.batch)))
	from := in.dirtyY
	if w.path == serve.PathValidate {
		from = make([]int, len(in.rows))
		for i := range from {
			from[i] = i
		}
	}
	if len(from) == 0 {
		return nil, fmt.Errorf("no input rows to draw %s batches from", w.name)
	}
	out := make([]batch, poolBatches)
	for b := range out {
		rows := make([]int, w.batch)
		tuples := make([]map[string]string, w.batch)
		for i := range rows {
			rows[i] = from[rng.Intn(len(from))]
			tuples[i] = in.tuple(rows[i])
		}
		body, err := json.Marshal(serve.TupleBatch{Tuples: tuples, Explain: w.explain})
		if err != nil {
			return nil, fmt.Errorf("encoding a request batch: %w", err)
		}
		out[b] = batch{body: body, rows: rows}
	}
	return out, nil
}

// tuple renders an input row as a request tuple; missing cells are
// left out, which the API reads as Null.
func (in *inputs) tuple(row int) map[string]string {
	t := make(map[string]string, len(in.header))
	for c, v := range in.rows[row] {
		if v != "" {
			t[in.header[c]] = v
		}
	}
	return t
}

// patchRequest builds the k-th PATCH /v1/data of repair-patch: append
// two held-out master rows and rewrite two cells of a matched master
// attribute to values that column already holds.
func (in *inputs) patchRequest(seed int64, k int) serve.DataPatchRequest {
	rng := rand.New(rand.NewSource(seed*104729 + int64(k)))
	req := serve.DataPatchRequest{Target: "master"}
	for j := 0; j < 2; j++ {
		row := in.heldOut[(2*k+j)%len(in.heldOut)]
		t := make(map[string]string, len(in.mHeader))
		for c, v := range row {
			if v != "" {
				t[in.mHeader[c]] = v
			}
		}
		req.Appends = append(req.Appends, t)
	}
	isMatched := make(map[string]bool)
	for _, m := range in.match {
		isMatched[m] = true
	}
	var matched []int
	for c, name := range in.mHeader {
		if isMatched[name] && name != in.ym {
			matched = append(matched, c)
		}
	}
	col := matched[rng.Intn(len(matched))]
	for j := 0; j < 2; j++ {
		row := rng.Intn(len(in.mRows))
		val := in.mRows[rng.Intn(len(in.mRows))][col]
		req.Updates = append(req.Updates, serve.DataCellJSON{Row: row, Attr: in.mHeader[col], Value: val})
	}
	return req
}

// codeTruth maps truth and predictions into one code space for
// metrics.Weighted; the empty string is relation.Null.
type codeTruth struct{ codes map[string]int32 }

func (c *codeTruth) code(v string) int32 {
	if v == "" {
		return relation.Null
	}
	if c.codes == nil {
		c.codes = make(map[string]int32)
	}
	code, ok := c.codes[v]
	if !ok {
		code = int32(len(c.codes))
		c.codes[v] = code
	}
	return code
}
