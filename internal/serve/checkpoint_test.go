package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"erminer/internal/core"
	"erminer/internal/rlminer"
)

// TestJobWorkerSurvivesPanic pins the worker-pool bugfix at the manager
// level: a run function that panics fails its job but leaves the worker
// alive for the next submission (before the fix the panic killed the
// goroutine, silently shrinking the pool to zero).
func TestJobWorkerSurvivesPanic(t *testing.T) {
	ran := make(chan string, 2)
	m := newJobManager(1, 4, func(j *job) {
		if j.spec.Method == "boom" {
			panic("miner exploded")
		}
		j.setDone(0, 0, 0)
		ran <- j.id
	})
	bad, err := m.submit(JobSpec{Method: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.submit(JobSpec{Method: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-ran:
		if id != good.id {
			t.Fatalf("unexpected job ran: %s", id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker died on the panic: second job never ran")
	}
	st := bad.snapshot()
	if st.State != JobFailed || !strings.Contains(st.Error, "panicked") {
		t.Errorf("panicked job = %+v", st)
	}
	if err := m.shutdown(nil); err != nil {
		t.Error(err)
	}
}

// TestPanickingJobLeavesDaemonServing is the end-to-end regression
// test: a panic inside a running job marks that job failed while the
// daemon keeps answering health checks and repairs and keeps executing
// later jobs. check.sh runs this under -race.
func TestPanickingJobLeavesDaemonServing(t *testing.T) {
	s := newTestServer(t, []core.MinedRule{districtRule()}, Config{JobWorkers: 1})
	s.holdJob = func(id string) {
		if id == "job-1" {
			panic("injected miner panic")
		}
	}
	if w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`); w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body)
	}
	var st JobStatus
	waitFor(t, "panicking job to fail", func() bool {
		decode(t, do(s, "GET", "/v1/jobs/job-1", ""), &st)
		return st.State == JobFailed
	})
	if !strings.Contains(st.Error, "panicked") {
		t.Errorf("failed job error = %q, want a panic attribution", st.Error)
	}
	if w := do(s, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz after job panic: status %d", w.Code)
	}
	if w := do(s, "POST", "/v1/repair", `{"tuples": [{"district": "hz", "area": "010", "postcode": "9"}]}`); w.Code != http.StatusOK {
		t.Errorf("repair after job panic: status %d: %s", w.Code, w.Body)
	}
	if w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`); w.Code != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", w.Code, w.Body)
	}
	waitFor(t, "second job to finish", func() bool {
		var cur JobStatus
		decode(t, do(s, "GET", "/v1/jobs/job-2", ""), &cur)
		return cur.State == JobDone
	})
	if got := s.metrics.jobsFailed.Load(); got != 1 {
		t.Errorf("jobsFailed = %d, want 1", got)
	}
}

// TestRLMinerJobCheckpointLifecycle: with CheckpointDir set an rlminer
// job reports training progress through its status, and its recovery
// files (manifest + checkpoint) are retired once it completes.
func TestRLMinerJobCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, nil, Config{CheckpointDir: dir})
	if w := do(s, "POST", "/v1/jobs", `{"method": "rlminer", "steps": 60, "seed": 7}`); w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body)
	}
	var st JobStatus
	waitFor(t, "rlminer job to finish", func() bool {
		decode(t, do(s, "GET", "/v1/jobs/job-1", ""), &st)
		return st.State == JobDone || st.State == JobFailed
	})
	if st.State != JobDone {
		t.Fatalf("job = %+v", st)
	}
	if st.Step != 60 || st.TotalSteps != 60 {
		t.Errorf("final progress = %d/%d, want 60/60", st.Step, st.TotalSteps)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("recovery files left behind: %v", left)
	}
}

// TestServerRecoversInterruptedRLMinerJob simulates a daemon killed
// mid-training: a spec manifest and a mid-run checkpoint sit in the
// checkpoint directory, and a new Server over the same directory
// resumes the job to completion, reserves its ID, sweeps corrupt
// manifests, and retires the files.
func TestServerRecoversInterruptedRLMinerJob(t *testing.T) {
	dir := t.TempDir()

	// Produce a genuine mid-run checkpoint the way a killed daemon would
	// have left one: the step trigger fires at 40 of 80, and the process
	// "dies" before completion simply by us not using this miner further.
	ckPath := filepath.Join(dir, "job-3.ckpt")
	pre := rlminer.New(rlminer.Config{TrainSteps: 80, Seed: 7,
		CheckpointPath: ckPath, CheckpointEverySteps: 40})
	if _, err := pre.Mine(testProblem(t)); err != nil {
		t.Fatal(err)
	}
	man, err := json.Marshal(jobManifest{ID: "job-3", Spec: JobSpec{Method: "rlminer", Steps: 80, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-3.spec.json"), man, 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt manifest must be swept, not recovered and not fatal.
	if err := os.WriteFile(filepath.Join(dir, "job-0.spec.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, nil, Config{CheckpointDir: dir})
	var st JobStatus
	waitFor(t, "recovered job to finish", func() bool {
		decode(t, do(s, "GET", "/v1/jobs/job-3", ""), &st)
		return st.State == JobDone || st.State == JobFailed
	})
	if st.State != JobDone || !st.Resumed {
		t.Fatalf("recovered job = %+v", st)
	}
	if got := s.metrics.jobsRecovered.Load(); got != 1 {
		t.Errorf("jobsRecovered = %d, want 1", got)
	}

	// Recovered IDs are reserved: a fresh submission continues past them.
	w := do(s, "POST", "/v1/jobs", `{"method": "enuminer"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("fresh submit: status %d: %s", w.Code, w.Body)
	}
	var fresh JobStatus
	decode(t, w, &fresh)
	if fresh.ID != "job-4" {
		t.Errorf("fresh job id = %s, want job-4", fresh.ID)
	}

	left, err := filepath.Glob(filepath.Join(dir, "*.spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("manifests left behind: %v", left)
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Errorf("checkpoint file not retired (err=%v)", err)
	}
}
