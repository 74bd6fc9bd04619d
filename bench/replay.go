package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/metrics"

	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/repair"
	"erminer/internal/rule"
	"erminer/internal/rulesio"
	"erminer/internal/serve"
)

// replayer rebuilds erminerd's request pipeline from the layers' public
// functions, step for step as the handlers run them, so each step can
// be timed in isolation. Its response bytes must equal the daemon's:
// that check is what makes the per-layer numbers describe the code the
// end-to-end numbers measure.
type replayer struct {
	p       *core.Problem
	rules   []core.MinedRule
	list    []*rule.Rule
	version int64
}

// newReplayer serves the inputs' rules as erminerd's first generation.
func newReplayer(in *inputs) (*replayer, error) {
	p, rules, err := in.loadServing()
	if err != nil {
		return nil, err
	}
	return &replayer{p: p, rules: rules, list: ruleList(rules), version: 1}, nil
}

func ruleList(rules []core.MinedRule) []*rule.Rule {
	out := make([]*rule.Rule, len(rules))
	for i, r := range rules {
		out[i] = r.Rule
	}
	return out
}

// replayStats counts the work one replayed request did.
type replayStats struct {
	fixes, renders, distinctRendered int
	measure                          measure.Stats
}

// allocTally attributes heap allocations to pipeline stages by reading
// the runtime's cumulative allocation counter at each boundary. The
// replay runs on one goroutine, so the deltas are the stage's own
// allocations. A nil tally records nothing.
type allocTally struct {
	sample []metrics.Sample
	byName map[string]uint64
}

func newAllocTally() *allocTally {
	return &allocTally{
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
		byName: make(map[string]uint64),
	}
}

func (a *allocTally) mark() uint64 {
	if a == nil {
		return 0
	}
	metrics.Read(a.sample)
	return a.sample[0].Value.Uint64()
}

func (a *allocTally) add(name string, since uint64) {
	if a == nil {
		return
	}
	a.byName[name] += a.mark() - since
}

// stage runs one traced, allocation-counted pipeline step.
func stage(tr *tracer, al *allocTally, tid, parent int64, name string, f func(id int64) error) error {
	id := tr.start(tid, parent, name)
	before := al.mark()
	err := f(id)
	al.add(name, before)
	tr.end(id)
	return err
}

// decodeBatch is the handlers' strict body decode.
func decodeBatch(body []byte) (serve.TupleBatch, error) {
	var req serve.TupleBatch
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding the batch: %w", err)
	}
	if dec.More() {
		return req, errors.New("trailing data after the batch")
	}
	return req, nil
}

// buildRelation is erminerd's batch encoding: a private relation over
// the input schema sharing the serving dictionaries.
func (r *replayer) buildRelation(tuples []map[string]string) (*relation.Relation, error) {
	for i, t := range tuples {
		if t == nil {
			tuples[i] = map[string]string{}
		}
	}
	schema := r.p.Input.Schema()
	rel := relation.New(schema, r.p.Input.Pool())
	vals := make([]string, schema.Len())
	for i, t := range tuples {
		for j := range vals {
			vals[j] = ""
		}
		for col, v := range t {
			idx := schema.Index(col)
			if idx < 0 {
				return nil, fmt.Errorf("tuple %d: unknown column %q", i, col)
			}
			vals[idx] = v
		}
		rel.AppendRow(vals)
	}
	return rel, nil
}

// run evaluates the active rules over the batch as erminerd does.
func (r *replayer) run(rel *relation.Relation) (*measure.Evaluator, repair.Result, error) {
	ev := measure.NewSharedEvaluator(rel, r.p.Master, nil, r.p.IndexCache)
	ev.Parallelism = r.p.Workers()
	res, err := repair.ApplyContext(context.Background(), ev, r.list)
	if err != nil {
		return nil, res, fmt.Errorf("applying rules: %w", err)
	}
	return ev, res, nil
}

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encoding the response: %w", err)
	}
	return buf.Bytes(), nil
}

// serveBatch replays one request of path with the given body.
func (r *replayer) serveBatch(path string, body []byte, tr *tracer, al *allocTally, tid int64) ([]byte, replayStats, error) {
	if path == serve.PathValidate {
		return r.validate(body, tr, al, tid)
	}
	return r.repair(body, tr, al, tid)
}

// repair replays POST /v1/repair: decode → batch relation → rule
// application → fix writing and explanation, rendering each
// contributing rule → encode.
func (r *replayer) repair(body []byte, tr *tracer, al *allocTally, tid int64) ([]byte, replayStats, error) {
	root := tr.start(tid, 0, "request")
	defer tr.end(root)
	var (
		st  replayStats
		req serve.TupleBatch
		rel *relation.Relation
		ev  *measure.Evaluator
		res repair.Result
		out []byte
	)
	err := stage(tr, al, tid, root, "serve.decode", func(int64) (err error) {
		req, err = decodeBatch(body)
		return err
	})
	if err == nil {
		err = stage(tr, al, tid, root, "relation.build", func(int64) (err error) {
			rel, err = r.buildRelation(req.Tuples)
			return err
		})
	}
	if err == nil {
		err = stage(tr, al, tid, root, "repair.apply", func(int64) (err error) {
			ev, res, err = r.run(rel)
			return err
		})
	}
	if err != nil {
		return nil, st, err
	}
	st.measure = ev.Stats
	var resp serve.RepairResponse
	err = stage(tr, al, tid, root, "repair.explain", func(id int64) error {
		resp = r.explain(req, rel, ev, res, tr, tid, id, &st)
		return nil
	})
	if err == nil {
		err = stage(tr, al, tid, root, "serve.encode", func(int64) (err error) {
			out, err = encode(resp)
			return err
		})
	}
	return out, st, err
}

// explain is handleRepair's response building: write the fixes, then
// for every changed cell explain it and render each contributing rule.
func (r *replayer) explain(req serve.TupleBatch, rel *relation.Relation, ev *measure.Evaluator, res repair.Result, tr *tracer, tid, parent int64, st *replayStats) serve.RepairResponse {
	y := r.p.Y
	yName := r.p.Input.Schema().Attr(y).Name
	oldCodes := make([]int32, rel.NumRows())
	for row := range oldCodes {
		oldCodes[row] = rel.Code(row, y)
	}
	changed := repair.WriteFixes(rel, y, res, req.OnlyMissing)
	resp := serve.RepairResponse{
		Tuples:       req.Tuples,
		Fixes:        []serve.FixJSON{},
		Covered:      res.Covered,
		Changed:      changed,
		RulesVersion: r.version,
	}
	rendered := make(map[*rule.Rule]bool)
	for row := 0; row < rel.NumRows(); row++ {
		if res.Pred[row] == relation.Null || rel.Code(row, y) == oldCodes[row] {
			continue
		}
		fix := serve.FixJSON{
			Row:   row,
			Attr:  yName,
			Old:   rel.Dict(y).Value(oldCodes[row]),
			New:   rel.Dict(y).Value(res.Pred[row]),
			Score: res.Score[row],
		}
		exp := repair.Explain(ev, r.list, row)
		for _, evd := range exp.Evidence {
			id := tr.start(tid, parent, "rule.render")
			ruleStr := evd.Rule.String(rel, r.p.Master.Schema())
			tr.end(id)
			st.renders++
			rendered[evd.Rule] = true
			fix.Rules = append(fix.Rules, ruleStr)
			if req.Explain {
				ej := serve.EvidenceJSON{Rule: ruleStr}
				for _, c := range evd.Candidates {
					ej.Candidates = append(ej.Candidates, serve.CandidateJSON{
						Value: rel.Dict(y).Value(c.Value),
						Count: c.Count,
						Score: c.Score,
					})
				}
				fix.Evidence = append(fix.Evidence, ej)
			}
		}
		resp.Tuples[row][yName] = fix.New
		resp.Fixes = append(resp.Fixes, fix)
	}
	st.fixes = len(resp.Fixes)
	st.distinctRendered = len(rendered)
	return resp
}

// validate replays POST /v1/validate: decode → batch relation → rule
// application → per-tuple classification → encode.
func (r *replayer) validate(body []byte, tr *tracer, al *allocTally, tid int64) ([]byte, replayStats, error) {
	root := tr.start(tid, 0, "request")
	defer tr.end(root)
	var (
		st  replayStats
		req serve.TupleBatch
		rel *relation.Relation
		ev  *measure.Evaluator
		res repair.Result
		out []byte
	)
	err := stage(tr, al, tid, root, "serve.decode", func(int64) (err error) {
		req, err = decodeBatch(body)
		return err
	})
	if err == nil {
		err = stage(tr, al, tid, root, "relation.build", func(int64) (err error) {
			rel, err = r.buildRelation(req.Tuples)
			return err
		})
	}
	if err == nil {
		err = stage(tr, al, tid, root, "repair.apply", func(int64) (err error) {
			ev, res, err = r.run(rel)
			return err
		})
	}
	if err != nil {
		return nil, st, err
	}
	st.measure = ev.Stats
	var resp serve.ValidateResponse
	err = stage(tr, al, tid, root, "serve.classify", func(int64) error {
		resp = r.classify(rel, res)
		return nil
	})
	if err == nil {
		err = stage(tr, al, tid, root, "serve.encode", func(int64) (err error) {
			out, err = encode(resp)
			return err
		})
	}
	return out, st, err
}

// classify is handleValidate's per-tuple verdict loop.
func (r *replayer) classify(rel *relation.Relation, res repair.Result) serve.ValidateResponse {
	y := r.p.Y
	yName := r.p.Input.Schema().Attr(y).Name
	resp := serve.ValidateResponse{Results: make([]serve.ValidationJSON, rel.NumRows()), RulesVersion: r.version}
	for row := 0; row < rel.NumRows(); row++ {
		v := serve.ValidationJSON{Row: row, Attr: yName, Got: rel.Value(row, y)}
		switch cur := rel.Code(row, y); {
		case res.Pred[row] == relation.Null:
			v.Status = "uncovered"
			resp.Uncovered++
		case cur == relation.Null:
			v.Status = "missing"
			v.Expected = rel.Dict(y).Value(res.Pred[row])
			v.Score = res.Score[row]
			resp.Missing++
		case cur == res.Pred[row]:
			v.Status = "consistent"
		default:
			v.Status = "violation"
			v.Expected = rel.Dict(y).Value(res.Pred[row])
			v.Score = res.Score[row]
			resp.Violations++
		}
		resp.Results[row] = v
	}
	return resp
}

// patchResult is what one replayed PATCH /v1/data left behind.
type patchResult struct {
	dataVersion          int64
	rulesVersion         int64
	etag                 string
	revalidated, dropped int
}

// patch replays PATCH /v1/data on the master relation as erminerd
// applies it: resolve the delta against the dictionaries, apply it
// atomically, patch the index caches through the change set, re-score
// the rules it touches and install the survivors as a new generation.
func (r *replayer) patch(req serve.DataPatchRequest, tr *tracer, tid int64) (patchResult, error) {
	root := tr.start(tid, 0, "patch")
	defer tr.end(root)
	m := r.p.Master
	var cs relation.ChangeSet
	err := stage(tr, nil, tid, root, "relation.apply_delta", func(int64) (err error) {
		cs, err = applyDelta(m, req)
		return err
	})
	if err != nil {
		return patchResult{}, err
	}
	out := patchResult{dataVersion: m.Version(), rulesVersion: r.version}
	if cs.Empty() {
		return out, nil
	}
	err = stage(tr, nil, tid, root, "measure.patch", func(int64) error {
		r.p.IndexCache.ApplyDelta(m, cs)
		if r.p.Columns != nil {
			r.p.Columns.ApplyMasterDelta(cs)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	var kept []core.MinedRule
	err = stage(tr, nil, tid, root, "repair.revalidate", func(int64) error {
		ev := measure.NewSharedEvaluator(r.p.Input, m, r.p.Truth, r.p.IndexCache)
		if r.p.Columns != nil {
			ev.ShareColumns(r.p.Columns)
		}
		ev.Parallelism = r.p.Workers()
		kept, out.revalidated, out.dropped = repair.Revalidate(ev, r.rules, r.p.SupportThreshold, func(rr *rule.Rule) bool {
			return repair.TouchedBy(rr, cs, true)
		})
		if out.revalidated == 0 {
			return nil
		}
		data, err := rulesio.Export(r.p, kept)
		if err != nil {
			return fmt.Errorf("hashing the re-validated generation: %w", err)
		}
		out.etag = rulesio.Hash(data)
		return nil
	})
	if err != nil || out.revalidated == 0 {
		return out, err
	}
	r.rules, r.list = kept, ruleList(kept)
	r.version++
	out.rulesVersion = r.version
	return out, nil
}

// applyDelta resolves a wire delta to codes (interning unseen values,
// as the daemon does) and applies it to rel.
func applyDelta(rel *relation.Relation, req serve.DataPatchRequest) (relation.ChangeSet, error) {
	schema := rel.Schema()
	var d relation.Delta
	for i, t := range req.Appends {
		row := make([]int32, schema.Len())
		for c := range row {
			row[c] = relation.Null
		}
		for col, v := range t {
			idx := schema.Index(col)
			if idx < 0 {
				return relation.ChangeSet{}, fmt.Errorf("append %d: unknown column %q", i, col)
			}
			if v != "" {
				row[idx] = rel.Dict(idx).Code(v)
			}
		}
		d.Appends = append(d.Appends, row)
	}
	for i, u := range req.Updates {
		idx := schema.Index(u.Attr)
		if idx < 0 {
			return relation.ChangeSet{}, fmt.Errorf("update %d: unknown column %q", i, u.Attr)
		}
		code := relation.Null
		if u.Value != "" {
			code = rel.Dict(idx).Code(u.Value)
		}
		d.Updates = append(d.Updates, relation.CellUpdate{Row: u.Row, Col: idx, Code: code})
	}
	cs, err := rel.ApplyDelta(d)
	if err != nil {
		return cs, fmt.Errorf("applying the delta: %w", err)
	}
	return cs, nil
}
