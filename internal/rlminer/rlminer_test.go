package rlminer

import (
	"math/rand"

	"erminer/internal/detrand"
	"testing"

	"erminer/internal/core"
	"erminer/internal/datagen"
	"erminer/internal/errgen"
	"erminer/internal/nn"
	"erminer/internal/rule"
	"erminer/internal/schema"

	"erminer/internal/relation"
)

func covidProblem(t testing.TB, inputSize int, seed int64) *core.Problem {
	t.Helper()
	ds, err := datagen.Covid().Build(datagen.DefaultSpec(inputSize, 600, seed))
	if err != nil {
		t.Fatal(err)
	}
	errgen.Inject(ds.Input, errgen.Config{Rate: 0.08, Rng: rand.New(rand.NewSource(seed + 1))})
	return &core.Problem{
		Input:            ds.Input,
		Master:           ds.Master,
		Match:            ds.Match,
		Y:                ds.Y,
		Ym:               ds.Ym,
		SupportThreshold: ds.SupportThreshold,
		TopK:             15,
	}
}

func TestRLMinerDeterministicGivenSeed(t *testing.T) {
	p1 := covidProblem(t, 800, 3)
	p2 := covidProblem(t, 800, 3)
	m1 := New(Config{TrainSteps: 800, Seed: 5})
	m2 := New(Config{TrainSteps: 800, Seed: 5})
	r1, err := m1.Mine(p1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Mine(p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rules) != len(r2.Rules) {
		t.Fatalf("rule counts differ: %d vs %d", len(r1.Rules), len(r2.Rules))
	}
	for i := range r1.Rules {
		if r1.Rules[i].Rule.Key() != r2.Rules[i].Rule.Key() {
			t.Errorf("rule %d differs across identical seeded runs", i)
		}
	}
}

func TestRLMinerStatsPopulated(t *testing.T) {
	p := covidProblem(t, 800, 4)
	m := New(Config{TrainSteps: 600, Seed: 6})
	if _, err := m.Mine(p); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.TrainSteps != 600 {
		t.Errorf("TrainSteps = %d, want 600", st.TrainSteps)
	}
	if st.Episodes == 0 || len(st.EpisodeRewards) != st.Episodes {
		t.Errorf("episodes = %d, rewards = %d", st.Episodes, len(st.EpisodeRewards))
	}
	if st.TrainTime <= 0 || st.InferTime <= 0 {
		t.Error("durations not recorded")
	}
	if st.InferenceSteps == 0 {
		t.Error("inference did not run")
	}
	if m.Network() == nil || m.TrainedSpace() == nil {
		t.Error("trained artifacts not retained")
	}
}

func TestRLMinerRespectsSupportAndRedundancy(t *testing.T) {
	p := covidProblem(t, 800, 7)
	m := New(Config{TrainSteps: 1200, Seed: 8})
	res, err := m.Mine(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rules {
		if r.Measures.Support < p.SupportThreshold {
			t.Errorf("rule below η_s: %d", r.Measures.Support)
		}
		if r.Measures.Utility <= 0 {
			t.Errorf("non-positive utility rule returned: %g", r.Measures.Utility)
		}
	}
	for i, a := range res.Rules {
		for j, b := range res.Rules {
			if i != j && rule.Dominates(a.Rule, b.Rule) {
				t.Errorf("rule %d dominates rule %d", i, j)
			}
		}
	}
}

func TestRLMinerInferenceOnly(t *testing.T) {
	p := covidProblem(t, 800, 9)
	m := New(Config{TrainSteps: 800, Seed: 10, InferenceOnly: true})
	res, err := m.Mine(p)
	if err != nil {
		t.Fatal(err)
	}
	// Inference-only selection is a subset of what training explored.
	if len(res.Rules) > p.K() {
		t.Errorf("too many rules: %d", len(res.Rules))
	}
}

func TestMineFineTunedSameSpace(t *testing.T) {
	p1 := covidProblem(t, 800, 11)
	scratch := New(Config{TrainSteps: 1000, Seed: 12})
	if _, err := scratch.Mine(p1); err != nil {
		t.Fatal(err)
	}
	// Same data again: the space is identical, the network transfers
	// verbatim.
	p2 := covidProblem(t, 800, 11)
	ft := New(Config{FineTuneSteps: 300, Seed: 13})
	res, err := ft.MineFineTuned(p2, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Name() != "RLMiner-ft" {
		t.Errorf("name = %q", ft.Name())
	}
	if ft.Stats().TrainSteps != 300 {
		t.Errorf("fine-tune steps = %d, want 300", ft.Stats().TrainSteps)
	}
	if len(res.Rules) == 0 {
		t.Error("fine-tuned miner found nothing")
	}
}

func TestMineFineTunedGrownSpace(t *testing.T) {
	p1 := covidProblem(t, 600, 14)
	scratch := New(Config{TrainSteps: 800, Seed: 15})
	if _, err := scratch.Mine(p1); err != nil {
		t.Fatal(err)
	}
	// Enriched data: more rows, new domain values → wider space.
	p2 := covidProblem(t, 1400, 16)
	ft := New(Config{FineTuneSteps: 400, Seed: 17})
	res, err := ft.MineFineTuned(p2, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Error("fine-tuned miner found nothing on enriched data")
	}
	// The adapted network must match the new space's dimensions.
	sizes := ft.Network().Sizes()
	if sizes[0] != ft.TrainedSpace().Dim() {
		t.Errorf("network input %d != space %d", sizes[0], ft.TrainedSpace().Dim())
	}
	if sizes[len(sizes)-1] != ft.TrainedSpace().Dim()+1 {
		t.Errorf("network output %d != actions %d", sizes[len(sizes)-1], ft.TrainedSpace().Dim()+1)
	}
}

// TestAdaptNetworkPreservesMappedWeights builds two spaces that differ by
// one extra pattern value and checks weight transfer dimension by
// dimension.
func TestAdaptNetworkPreservesMappedWeights(t *testing.T) {
	build := func(extra bool) (*core.Problem, *core.Space) {
		pool := relation.NewPool()
		in := relation.NewSchema(
			relation.Attribute{Name: "A", Domain: "a"},
			relation.Attribute{Name: "Y", Domain: "y"},
		)
		ms := relation.NewSchema(
			relation.Attribute{Name: "A", Domain: "a"},
			relation.Attribute{Name: "Y", Domain: "y"},
		)
		input := relation.New(in, pool)
		master := relation.New(ms, pool)
		n := 10
		for i := 0; i < n; i++ {
			input.AppendRow([]string{"a0", "y0"})
			input.AppendRow([]string{"a1", "y1"})
			master.AppendRow([]string{"a0", "y0"})
			master.AppendRow([]string{"a1", "y1"})
		}
		if extra {
			for i := 0; i < n; i++ {
				input.AppendRow([]string{"a2", "y0"})
				master.AppendRow([]string{"a2", "y0"})
			}
		}
		p := &core.Problem{
			Input: input, Master: master,
			Match: schema.AutoMatch(in, ms),
			Y:     1, Ym: 1, SupportThreshold: 2,
		}
		return p, core.BuildSpace(p, core.SpaceConfig{MinValueCount: 2, MaxValueFrac: -1})
	}
	_, oldSpace := build(false)
	_, newSpace := build(true)
	if newSpace.Dim() <= oldSpace.Dim() {
		t.Fatalf("expected the space to grow: %d -> %d", oldSpace.Dim(), newSpace.Dim())
	}

	rng := rand.New(rand.NewSource(18))
	old := nn.NewMLP(rng, oldSpace.Dim(), 8, oldSpace.Dim()+1)
	adapted := adaptNetwork(detrand.New(19), old, spaceDimIDs(oldSpace), newSpace)

	sizes := adapted.Sizes()
	if sizes[0] != newSpace.Dim() || sizes[len(sizes)-1] != newSpace.Dim()+1 {
		t.Fatalf("adapted sizes = %v", sizes)
	}

	// Shared dimensions must carry their first-layer weights over.
	oldByID := make(map[string]int)
	for d := 0; d < oldSpace.Dim(); d++ {
		oldByID[oldSpace.DimID(d)] = d
	}
	oldW := old.Params()[0].Value
	newW := adapted.Params()[0].Value
	mapped := 0
	for d := 0; d < newSpace.Dim(); d++ {
		od, ok := oldByID[newSpace.DimID(d)]
		if !ok {
			continue
		}
		mapped++
		for j := 0; j < 8; j++ {
			if newW.At(d, j) != oldW.At(od, j) {
				t.Fatalf("weight not transferred for dim %d", d)
			}
		}
	}
	if mapped != oldSpace.Dim() {
		t.Errorf("mapped %d dims, want all %d old dims", mapped, oldSpace.Dim())
	}

	// The stop action's output weights transfer too.
	oldWL := old.Params()[2].Value
	newWL := adapted.Params()[2].Value
	for r := 0; r < 8; r++ {
		if newWL.At(r, newSpace.Dim()) != oldWL.At(r, oldSpace.Dim()) {
			t.Fatal("stop-action weights not transferred")
		}
	}
}

func TestAdaptNetworkIdenticalSpace(t *testing.T) {
	p := covidProblem(t, 400, 19)
	space := core.BuildSpace(p, core.SpaceConfig{MinValueCount: p.SupportThreshold})
	rng := rand.New(rand.NewSource(20))
	old := nn.NewMLP(rng, space.Dim(), 4, space.Dim()+1)
	adapted := adaptNetwork(detrand.New(20), old, spaceDimIDs(space), space)
	in := make([]float64, space.Dim())
	in[0] = 1
	a, b := old.Predict(in), adapted.Predict(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical-space adaptation changed predictions")
		}
	}
	// And it must be a copy, not the same network.
	old.Params()[0].Value.Data[0] += 1
	if old.Predict(in)[0] == adapted.Predict(in)[0] {
		t.Error("adaptation shares parameters")
	}
}

func TestAdaptNetworkNilSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	old := nn.NewMLP(rng, 3, 4, 4)
	if adaptNetwork(detrand.New(21), old, nil, nil) == old {
		t.Error("nil-space adaptation returned the same instance")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.trainSteps() != 5000 || c.fineTuneSteps() != 1000 {
		t.Errorf("defaults: %d %d", c.trainSteps(), c.fineTuneSteps())
	}
}

func TestMineInvalidProblem(t *testing.T) {
	if _, err := New(Config{}).Mine(&core.Problem{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}
