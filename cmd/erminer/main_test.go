package main

import (
	"os"
	"path/filepath"
	"testing"
)

func baseOptions() options {
	return options{
		dataset:  "covid",
		method:   "enuminer",
		k:        10,
		noise:    0.05,
		seed:     1,
		input:    500,
		master:   300,
		doRepair: true,
	}
}

func TestRunBenchmarkMode(t *testing.T) {
	o := baseOptions()
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunUnknownDataset(t *testing.T) {
	o := baseOptions()
	o.dataset = "bogus"
	if run(o) == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunUnknownMethod(t *testing.T) {
	o := baseOptions()
	o.method = "bogus"
	if run(o) == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestRunExportRules(t *testing.T) {
	o := baseOptions()
	o.exportTo = filepath.Join(t.TempDir(), "rules.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.exportTo)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty rules export")
	}
}

func TestRunRLMinerSaveAndLoadModel(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model.bin")

	o := baseOptions()
	o.method = "rlminer"
	o.steps = 600
	o.saveModel = model
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}

	// Fine-tune from the saved model on slightly larger data.
	o2 := baseOptions()
	o2.method = "rlminer"
	o2.steps = 600
	o2.input = 700
	o2.seed = 2
	o2.loadModel = model
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
}

func TestRunSaveModelWrongMethod(t *testing.T) {
	o := baseOptions()
	o.saveModel = filepath.Join(t.TempDir(), "m.bin")
	if run(o) == nil {
		t.Fatal("-save-model with enuminer accepted")
	}
}

func TestRunCSVMode(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "in.csv")
	master := filepath.Join(dir, "ms.csv")
	inData := "k,y\n"
	msData := "k,y\n"
	for i := 0; i < 60; i++ {
		k := []string{"a", "b", "c"}[i%3]
		inData += k + ",y-" + k + "\n"
		msData += k + ",y-" + k + "\n"
	}
	if err := os.WriteFile(input, []byte(inData), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(master, []byte(msData), 0o644); err != nil {
		t.Fatal(err)
	}

	o := baseOptions()
	o.inputCSV = input
	o.masterCSV = master
	o.y, o.ym = "y", "y"
	o.match = "k=k"
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	// Missing pieces are rejected.
	o.masterCSV = ""
	if run(o) == nil {
		t.Fatal("CSV mode without master accepted")
	}
	o.masterCSV = master
	o.match = "malformed"
	if run(o) == nil {
		t.Fatal("malformed -match accepted")
	}
}

func TestRunExplain(t *testing.T) {
	o := baseOptions()
	o.explain = 0
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o.explain = 1 << 20
	if run(o) == nil {
		t.Fatal("out-of-range -explain accepted")
	}
}

// TestRunMutateInputAppend appends an unlabelled input tuple through
// -mutate and repairs: the repair is scored over the labelled rows only.
func TestRunMutateInputAppend(t *testing.T) {
	delta := filepath.Join(t.TempDir(), "d.json")
	if err := os.WriteFile(delta, []byte(`{"target":"input","appends":[{"city":"Seoul"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOptions()
	o.method = "enuminerh3"
	o.k = 5
	o.input, o.master = 300, 200
	o.mutate = delta
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
}
