package erminer_test

import (
	"bytes"
	"testing"

	"erminer"
)

func TestPublicModelPersistence(t *testing.T) {
	ds, err := erminer.BuildDataset("covid", erminer.DatasetSpec{
		InputSize: 600, MasterSize: 400, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Problem(0)
	p.TopK = 10
	m := erminer.NewRLMiner(erminer.RLMinerConfig{TrainSteps: 600, Seed: 44})
	if _, err := m.Mine(p); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := erminer.SaveModel(m, &buf); err != nil {
		t.Fatal(err)
	}
	saved, err := erminer.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if saved.DimCount() == 0 {
		t.Error("empty saved model")
	}
}
