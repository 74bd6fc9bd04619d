package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"erminer/internal/core"
	"erminer/internal/serve"
)

// splice runs the splice of the given kind into a fresh buffer.
func splice(validate bool, bodies [][]byte, parts [][]int) ([]byte, error) {
	if validate {
		return spliceValidate(bodies, parts, nil)
	}
	out, _, err := spliceRepair(bodies, parts, nil)
	return out, err
}

// oracle runs the old merge. It indexes parts with a worker's fix row
// unchecked, so a body naming a row outside its sub-batch panics it;
// that counts as a refusal (status 0).
func oracle(validate bool, bodies [][]byte, parts [][]int) (code int, body []byte) {
	defer func() {
		if recover() != nil {
			code, body = 0, nil
		}
	}()
	if validate {
		return oracleValidate(bodies, parts)
	}
	return oracleRepair(bodies, parts)
}

// encode writes v with the worker's own response encoder.
func encode(v any) []byte {
	w := httptest.NewRecorder()
	serve.WriteJSON(w, http.StatusOK, v)
	return w.Body.Bytes()
}

// canonical reports whether body is exactly what the worker's encoder
// writes for the response it decodes to.
func canonical(validate bool, body []byte) bool {
	v := decodeAs(validate, body)
	_, failed := v.(string)
	return !failed && bytes.Equal(encode(v), body)
}

// checkSplice holds the splice to the oracle on one set of worker
// bodies:
//   - it merges only what the oracle merges, into valid JSON;
//   - when every body is canonical (exactly what the worker's encoder
//     writes for the response it decodes to), it writes the oracle's
//     bytes, and otherwise bytes that decode to the oracle's response;
//   - on bodies a worker wrote (wellFormed), it refuses only what the
//     oracle refuses.
//
// A worker body is not canonical when it carries a string that was
// not valid UTF-8: the encoder writes each bad byte as \ufffd, which
// decodes to U+FFFD and re-encodes raw. The splice relays the escape,
// as a single node writes it; the oracle re-encodes it.
func checkSplice(t *testing.T, validate, wellFormed bool, bodies [][]byte, parts [][]int) {
	t.Helper()
	got, err := splice(validate, bodies, parts)
	code, want := oracle(validate, bodies, parts)
	if err != nil {
		if wellFormed && code == http.StatusOK {
			t.Fatalf("splice refused bodies the oracle merged: %v\nbodies: %q\nparts: %v", err, bodies, parts)
		}
		return
	}
	if code != http.StatusOK {
		t.Fatalf("splice merged bodies the oracle refused with %d %s\nbodies: %q\nparts: %v", code, want, bodies, parts)
	}
	if !json.Valid(got) {
		t.Fatalf("splice wrote invalid JSON %q", got)
	}
	for _, b := range bodies {
		if b != nil && !canonical(validate, b) {
			if g, w := decodeAs(validate, got), decodeAs(validate, want); !reflect.DeepEqual(g, w) {
				t.Fatalf("splice decodes to a different response than the oracle's\nsplice: %s\noracle: %s\nparts: %v", got, want, parts)
			}
			return
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("splice differs from the oracle\nsplice: %s\noracle: %s\nparts: %v", got, want, parts)
	}
}

// decodeAs decodes a merged body into its typed response.
func decodeAs(validate bool, body []byte) any {
	var v any = &serve.RepairResponse{}
	if validate {
		v = &serve.ValidateResponse{}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return err.Error()
	}
	return v
}

// gen turns fuzz bytes into the typed responses a worker could answer.
// Reading past the end yields zeros.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) intn(n int) int { return int(g.byte()) % n }

func (g *gen) uint64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fuzzPieces bias strings toward what exercises the encoder: HTML
// characters, quotes, backslashes, control bytes and non-ASCII. One
// character in 32 is instead a raw byte, invalid UTF-8 half the time.
var fuzzPieces = []string{"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "💥", "\u2028"}

func (g *gen) str() string {
	var sb strings.Builder
	for n := g.intn(5); n > 0; n-- {
		if c := g.byte(); c < 0xf8 {
			sb.WriteString(fuzzPieces[int(c)%len(fuzzPieces)])
		} else {
			sb.WriteByte(g.byte())
		}
	}
	return sb.String()
}

var fuzzFloats = []float64{0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, -2.25, 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64}

func (g *gen) float() float64 {
	if c := g.byte(); c < 0xf0 {
		return fuzzFloats[int(c)%len(fuzzFloats)]
	}
	f := math.Float64frombits(g.uint64())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

func (g *gen) int() int {
	switch c := g.byte(); c % 4 {
	case 0:
		return int(c / 4)
	case 1:
		return -int(c / 4)
	case 2:
		return int(int64(g.uint64()))
	}
	return 0
}

// bodies generates a partition of a small batch over 1–4 workers and
// each worker's canonical answer, occasionally under a skewed rule
// generation.
func (g *gen) bodies() (validate bool, bodies [][]byte, parts [][]int) {
	validate = g.byte()&1 == 1
	nw := 1 + g.intn(4)
	parts = make([][]int, nw)
	for i, m := 0, 1+g.intn(16); i < m; i++ {
		w := g.intn(nw)
		parts[w] = append(parts[w], i)
	}
	version, skew := int64(g.intn(3)), g.intn(8) == 0
	bodies = make([][]byte, nw)
	for w, p := range parts {
		if len(p) == 0 {
			continue
		}
		v := version
		if skew && w == nw-1 {
			v++
		}
		if validate {
			bodies[w] = encode(g.validateResponse(len(p), v))
		} else {
			bodies[w] = encode(g.repairResponse(len(p), v))
		}
	}
	return validate, bodies, parts
}

func (g *gen) repairResponse(n int, version int64) serve.RepairResponse {
	rr := serve.RepairResponse{
		Tuples:       make([]map[string]string, n),
		Fixes:        []serve.FixJSON{},
		Covered:      g.int(),
		Changed:      g.int(),
		RulesVersion: version,
	}
	for k := range rr.Tuples {
		t := map[string]string{}
		for j := g.intn(3); j > 0; j-- {
			t[g.str()] = g.str()
		}
		rr.Tuples[k] = t
		if g.byte()&1 == 0 {
			continue
		}
		f := serve.FixJSON{Row: k, Attr: g.str(), Old: g.str(), New: g.str(), Score: g.float()}
		for j := g.intn(3); j > 0; j-- {
			f.Rules = append(f.Rules, g.str())
		}
		for j := g.intn(3); j > 0; j-- {
			ev := serve.EvidenceJSON{Rule: g.str()}
			switch g.intn(3) {
			case 1:
				ev.Candidates = []serve.CandidateJSON{}
			case 2:
				for c := 1 + g.intn(2); c > 0; c-- {
					ev.Candidates = append(ev.Candidates, serve.CandidateJSON{Value: g.str(), Count: g.int(), Score: g.float()})
				}
			}
			f.Evidence = append(f.Evidence, ev)
		}
		rr.Fixes = append(rr.Fixes, f)
	}
	return rr
}

func (g *gen) validateResponse(n int, version int64) serve.ValidateResponse {
	vr := serve.ValidateResponse{
		Results:      make([]serve.ValidationJSON, n),
		Violations:   g.int(),
		Missing:      g.int(),
		Uncovered:    g.int(),
		RulesVersion: version,
	}
	for k := range vr.Results {
		vr.Results[k] = serve.ValidationJSON{Row: k, Status: g.str(), Attr: g.str(), Got: g.str(), Expected: g.str(), Score: g.float()}
	}
	return vr
}

// mutate rewrites one byte of one body, deletes or inserts one, or
// truncates the body.
func (g *gen) mutate(bodies [][]byte) [][]byte {
	out := make([][]byte, len(bodies))
	copy(out, bodies)
	w := g.intn(len(out))
	b := out[w]
	if b == nil {
		return out
	}
	pos := (int(g.byte())<<8 | int(g.byte())) % (len(b) + 1)
	m := make([]byte, 0, len(b)+1)
	switch g.intn(4) {
	case 0:
		if pos < len(b) {
			m = append(append(append(m, b[:pos]...), g.byte()), b[pos+1:]...)
		}
	case 1:
		if pos < len(b) {
			m = append(append(m, b[:pos]...), b[pos+1:]...)
		}
	case 2:
		m = append(append(append(m, b[:pos]...), g.byte()), b[pos:]...)
	case 3:
		m = append(m, b[:pos]...)
	}
	out[w] = m
	return out
}

// seq is the identity partition of an n-tuple batch onto one worker.
func seq(n int) [][]int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return [][]int{p}
}

// workerBodies asks a real worker daemon for the sub-responses a
// coordinator over n workers would gather for one batch.
func workerBodies(tb testing.TB, path, batch string, n int) ([][]byte, [][]int) {
	tb.Helper()
	s, err := serve.New(clusterProblem(tb), []core.MinedRule{districtRule()}, serve.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	defer func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		if err := s.Shutdown(done); err != nil {
			tb.Errorf("worker shutdown: %v", err)
		}
	}()
	var req serve.TupleBatch
	if err := json.Unmarshal([]byte(batch), &req); err != nil {
		tb.Fatal(err)
	}
	parts := partition(req.Tuples, n)
	bodies := make([][]byte, n)
	for w, p := range parts {
		if len(p) == 0 {
			continue
		}
		sub := serve.TupleBatch{OnlyMissing: req.OnlyMissing, Explain: req.Explain}
		for _, i := range p {
			sub.Tuples = append(sub.Tuples, req.Tuples[i])
		}
		rec := do(s, "POST", path, string(encode(sub)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("worker answered %d: %s", rec.Code, rec.Body)
		}
		bodies[w] = rec.Body.Bytes()
	}
	return bodies, parts
}

// FuzzSplice holds the splice to the old decode → merge → sort →
// encode. spec drives a generator of canonical worker answers (1–4
// workers, fuzz-chosen strings, floats, evidence lists and partitions),
// which must splice to exactly the oracle's bytes, and then one
// mutation of them; raw is a single worker's body taken as is. On
// mutated and raw bodies the splice must not panic, and it may answer
// 200 only where the oracle does.
func FuzzSplice(f *testing.F) {
	for _, path := range []string{serve.PathRepair, serve.PathValidate} {
		for _, batch := range variants(byteBatch) {
			bodies, _ := workerBodies(f, path, batch, 2)
			for _, b := range bodies {
				f.Add([]byte(nil), b)
			}
		}
	}
	f.Add([]byte(nil), []byte(`{"tuples":[{}],"fixes":[],"covered":0,"changed":0,"rules_version":1}`+"\n"))
	f.Add([]byte(nil), []byte(`{"tuples":[{}],"fixes":[{"row":0,"attr":"a","old":"","new":"b","score":1e999}],"covered":1,"changed":1,"rules_version":1}`+"\n"))
	f.Add([]byte(nil), []byte(`{"results":[{"row":0,"status":"violation","attr":"a","got":"x","expected":"y","score":1e999}],"violations":1,"missing":0,"uncovered":0,"rules_version":1}`+"\n"))
	for i := byte(0); i < 8; i++ {
		f.Add(bytes.Repeat([]byte{i, 0x90 + i, 3 + i, 0xf7, 1, 0x2c, 0x55 * i}, 60), []byte(nil))
	}

	f.Fuzz(fuzzSplice)
}

// fuzzSplice is FuzzSplice's property check on one input.
func fuzzSplice(t *testing.T, spec, raw []byte) {
	g := &gen{b: spec}
	validate, bodies, parts := g.bodies()
	checkSplice(t, validate, true, bodies, parts)
	checkSplice(t, validate, false, g.mutate(bodies), parts)
	if len(raw) == 0 {
		return
	}
	// A raw body is spliced as the kind it starts like, its batch the
	// tuples the oracle's decode finds (at least one).
	validate, n := bytes.HasPrefix(raw, []byte(`{"results"`)), 1
	if validate {
		var vr serve.ValidateResponse
		if json.Unmarshal(raw, &vr) == nil && len(vr.Results) > 0 {
			n = len(vr.Results)
		}
	} else {
		var rr serve.RepairResponse
		if json.Unmarshal(raw, &rr) == nil && len(rr.Tuples) > 0 {
			n = len(rr.Tuples)
		}
	}
	checkSplice(t, validate, false, [][]byte{raw}, seq(n))
}

// fakeWorker is a worker that answers every request with body.
func fakeWorker(t *testing.T, body string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		//ermvet:ignore errdrop test double; a failed write shows up as the coordinator's error
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestMalformedWorkerBodyIs502 pins the coordinator's answer to worker
// bodies that break the response grammar: a 502 naming the worker and
// the fault. A fix row outside the sub-batch must never reach the
// partition as an index.
func TestMalformedWorkerBodyIs502(t *testing.T) {
	const one, two = `{"tuples": [{}]}`, `{"tuples": [{}, {}]}`
	fix := func(row int) string {
		return fmt.Sprintf(`{"row":%d,"attr":"postcode","old":"","new":"1","score":1}`, row)
	}
	repair := func(tuples int, fixes ...string) string {
		return `{"tuples":[{}` + strings.Repeat(`,{}`, tuples-1) + `],"fixes":[` + strings.Join(fixes, ",") + `],"covered":1,"changed":1,"rules_version":1}` + "\n"
	}
	result := func(row int) string {
		return fmt.Sprintf(`{"row":%d,"status":"uncovered","attr":"postcode"}`, row)
	}
	validate := func(results ...string) string {
		return `{"results":[` + strings.Join(results, ",") + `],"violations":0,"missing":0,"uncovered":2,"rules_version":1}` + "\n"
	}
	for _, tc := range []struct {
		name, path, batch, answer, want string
	}{
		{"fix row past the sub-batch", serve.PathRepair, one, repair(1, fix(7)), "fix row 7 outside the 1-tuple sub-batch"},
		{"negative fix row", serve.PathRepair, one, repair(1, fix(-1)), "fix row -1 outside"},
		{"fix rows descend", serve.PathRepair, two, repair(2, fix(1), fix(0)), "fix row 0 does not ascend"},
		{"fix row repeats", serve.PathRepair, two, repair(2, fix(1), fix(1)), "fix row 1 does not ascend"},
		{"validate row off its position", serve.PathValidate, two, validate(result(1), result(0)), "result row 1 at position 0"},
		{"too few tuples", serve.PathRepair, two, repair(1), "array holds 1 elements for a 2-tuple sub-batch"},
		{"too many results", serve.PathValidate, one, validate(result(0), result(1)), "more elements than the 1-tuple sub-batch"},
		{"overflowing score", serve.PathRepair, one, strings.Replace(repair(1, fix(0)), `"score":1`, `"score":1e999`, 1), "1e999 overflows float64"},
		{"overflowing counter", serve.PathRepair, one, strings.Replace(repair(1), `"covered":1`, `"covered":99999999999999999999`, 1), "overflows int"},
		{"non-integer row", serve.PathValidate, one, validate(`{"row":0.0,"status":"uncovered","attr":"postcode"}`), "want an integer"},
		{"whitespace", serve.PathRepair, one, strings.Replace(repair(1), `"fixes":`, `"fixes": `, 1), "offset 14: want"},
		{"fields out of order", serve.PathRepair, one, `{"fixes":[],"tuples":[{}],"covered":1,"changed":1,"rules_version":1}` + "\n", "offset 0: want"},
		{"control byte", serve.PathRepair, one, strings.Replace(repair(1), `[{}]`, "[{\"a\":\"\x01\"}]", 1), "control byte 0x01"},
		{"bad escape", serve.PathRepair, one, strings.Replace(repair(1), `[{}]`, `[{"a":"\x"}]`, 1), `bad escape \\x`},
		{"non-string tuple value", serve.PathRepair, one, strings.Replace(repair(1), `[{}]`, `[{"a":1}]`, 1), "want a string"},
		{"empty omitempty field", serve.PathValidate, one, validate(`{"row":0,"status":"missing","attr":"postcode","got":""}`), `empty \"got\"`},
		{"trailing data", serve.PathRepair, one, repair(1) + "{}", "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCoordinator(t, Config{Workers: []string{fakeWorker(t, tc.answer)}, Retries: -1})
			w := do(c, "POST", tc.path, tc.batch)
			if w.Code != http.StatusBadGateway {
				t.Fatalf("answered %d %s, want 502", w.Code, w.Body)
			}
			if body := w.Body.String(); !strings.Contains(body, "decoding worker 0 response: ") || !strings.Contains(body, tc.want) {
				t.Errorf("502 body %s does not name the worker and %q", body, tc.want)
			}
		})
	}
}

// singleNode boots the single-node reference daemon.
func singleNode(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	s, err := serve.New(clusterProblem(t), []core.MinedRule{districtRule()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		if err := s.Shutdown(done); err != nil {
			t.Errorf("single-node shutdown: %v", err)
		}
	})
	return s
}

// TestTupleErrorsMatchSingleNode puts tuples with unknown columns at
// every position of byteBatch and requires the coordinator's 400 to be
// the single node's bytes at 1, 2 and 4 workers: the tuple is named by
// its batch position, not its sub-batch position, and when several
// workers reject, the lowest batch position wins.
func TestTupleErrorsMatchSingleNode(t *testing.T) {
	single := singleNode(t, serve.Config{})
	var base serve.TupleBatch
	if err := json.Unmarshal([]byte(byteBatch), &base); err != nil {
		t.Fatal(err)
	}
	bad := func(t map[string]string) map[string]string {
		out := map[string]string{"zeta": "1", "alpha": "2", "mid": "3"}
		for k, v := range t {
			out[k] = v
		}
		return out
	}
	var batches []string
	for pos := range base.Tuples {
		b := serve.TupleBatch{Tuples: append([]map[string]string(nil), base.Tuples...)}
		b.Tuples[pos] = bad(b.Tuples[pos])
		batches = append(batches, string(encode(b)))
	}
	all := serve.TupleBatch{}
	for _, tu := range base.Tuples {
		all.Tuples = append(all.Tuples, bad(tu))
	}
	batches = append(batches, string(encode(all)))

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := newCoordinator(t, Config{Workers: newFleet(t, workers)})
			for i, batch := range batches {
				for _, path := range []string{serve.PathRepair, serve.PathValidate} {
					want := do(single, "POST", path, batch)
					got := do(c, "POST", path, batch)
					if want.Code != http.StatusBadRequest || !strings.Contains(want.Body.String(), `unknown column \"alpha\"`) {
						t.Fatalf("batch %d: single node answered %d %s", i, want.Code, want.Body)
					}
					if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Errorf("batch %d %s: coordinator answered %d %s, single node %d %s", i, path, got.Code, got.Body, want.Code, want.Body)
					}
				}
			}
		})
	}
}

// TestSpliceAllocsFlat is the splice's allocation gate: merging 1,000
// fixes costs no more allocations than merging 10, so nothing in the
// merge allocates per element.
func TestSpliceAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	allocs := func(tuples, fixes int) float64 {
		_, bodies, parts := benchBatch(tuples, fixes, 4)
		size := 0
		for _, b := range bodies {
			size += len(b)
		}
		dst := make([]byte, 0, 2*size)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := spliceRepair(bodies, parts, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(12, 10), allocs(1200, 1000)
	if large > small {
		t.Errorf("splice allocates %.0f times for 1000 fixes, %.0f for 10: allocations grow with the response", large, small)
	}
}
