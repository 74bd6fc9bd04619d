package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"erminer/internal/serve"
)

// benchColumns are the covid input schema's seven columns, the shape of
// ermbench's cluster-repair traffic.
var benchColumns = []string{"city", "sex", "age_group", "confirmed_date", "overseas", "state", "infection_case"}

// benchBatch builds an explain repair batch of n tuples over
// benchColumns and the answers two workers give for it: the first
// `fixes` tuples are repaired, each fix citing `evidence` rules with
// three candidates apiece. It returns the request body, the worker
// bodies (as each worker's json.Encoder writes them) and the partition.
func benchBatch(n, fixes, evidence int) ([]byte, [][]byte, [][]int) {
	rng := rand.New(rand.NewSource(1))
	req := serve.TupleBatch{Tuples: make([]map[string]string, n), Explain: true}
	for i := range req.Tuples {
		t := make(map[string]string, len(benchColumns))
		for j, col := range benchColumns {
			t[col] = fmt.Sprintf("%s-%d", col[:3], rng.Intn(40-4*j))
		}
		req.Tuples[i] = t
	}
	parts := partition(req.Tuples, 2)
	bodies := make([][]byte, 2)
	for w, p := range parts {
		rr := serve.RepairResponse{Tuples: make([]map[string]string, len(p)), Fixes: []serve.FixJSON{}, RulesVersion: 1}
		for k, i := range p {
			rr.Tuples[k] = req.Tuples[i]
			if i >= fixes {
				continue
			}
			rr.Covered++
			rr.Changed++
			f := serve.FixJSON{Row: k, Attr: "infection_case", Old: req.Tuples[i]["infection_case"], New: "contact with patient", Score: rng.Float64()}
			for e := 0; e < evidence; e++ {
				rule := fmt.Sprintf("([city, state, age_group] -> infection_case, tp = (overseas = %d, sex = %d))", rng.Intn(9), e)
				f.Rules = append(f.Rules, rule)
				ev := serve.EvidenceJSON{Rule: rule}
				for c := 0; c < 3; c++ {
					ev.Candidates = append(ev.Candidates, serve.CandidateJSON{Value: fmt.Sprintf("case-%d", rng.Intn(12)), Count: 1 + rng.Intn(30), Score: rng.Float64()})
				}
				f.Evidence = append(f.Evidence, ev)
			}
			rr.Fixes = append(rr.Fixes, f)
		}
		bodies[w] = encode(rr)
	}
	return encode(req), bodies, parts
}

// cannedWorkers answers every worker call from memory with the body
// canned for the worker's host, so a benchmark times the coordinator
// alone.
type cannedWorkers map[string][]byte

func (c cannedWorkers) RoundTrip(r *http.Request) (*http.Response, error) {
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		return nil, err
	}
	if err := r.Body.Close(); err != nil {
		return nil, err
	}
	body := c[r.URL.Host]
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       r,
	}, nil
}

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkCoordinatorRepair times one cluster-repair request through
// the coordinator — decode, partition, sub-batch encode, fan-out to two
// in-memory workers, merge, write — at ermbench's scale: 64 tuples × 7
// columns, 54 fixes × 16 evidence rules, a ~370 KB merged body.
func BenchmarkCoordinatorRepair(b *testing.B) {
	req, bodies, _ := benchBatch(64, 54, 16)
	c, err := New(Config{
		Workers:        []string{"http://w0", "http://w1"},
		HealthInterval: -1,
		Client:         &http.Client{Transport: cannedWorkers{"w0": bodies[0], "w1": bodies[1]}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		done := make(chan struct{})
		time.AfterFunc(10*time.Second, func() { close(done) })
		if err := c.Shutdown(done); err != nil {
			b.Error(err)
		}
	}()
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ServeHTTP(w, httptest.NewRequest(http.MethodPost, serve.PathRepair, bytes.NewReader(req)))
		if w.code != http.StatusOK {
			b.Fatalf("coordinator answered %d", w.code)
		}
	}
}
