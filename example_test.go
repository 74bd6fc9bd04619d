package erminer_test

import (
	"fmt"

	"erminer"
)

// Example demonstrates the core workflow: build a benchmark dataset,
// corrupt it, discover rules with the enumeration miner (deterministic,
// so the output is stable) and repair the dirty cells.
func Example() {
	ds, err := erminer.BuildDataset("covid", erminer.DatasetSpec{
		InputSize: 1000, MasterSize: 700, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	ds.InjectErrors(erminer.NoiseConfig{Rate: 0.05, Seed: 2})

	p := ds.Problem(0)
	p.TopK = 5
	res, err := erminer.NewEnuMiner(erminer.EnuMinerConfig{}).Mine(p)
	if err != nil {
		panic(err)
	}

	fixes := erminer.Repair(p, res.Rules)
	prf := erminer.Evaluate(fixes.Pred, ds.Truth())
	fmt.Printf("rules: %d\n", len(res.Rules))
	fmt.Printf("good repair: %v\n", prf.F1 > 0.5)
	// Output:
	// rules: 5
	// good repair: true
}

// ExampleNewRLMiner shows the reinforcement-learning miner with a custom
// training budget and fine-tuning from a previous model.
func ExampleNewRLMiner() {
	ds, err := erminer.BuildDataset("covid", erminer.DatasetSpec{
		InputSize: 800, MasterSize: 500, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	p := ds.Problem(0)
	p.TopK = 10

	m := erminer.NewRLMiner(erminer.RLMinerConfig{TrainSteps: 1000, Seed: 4})
	res, err := m.Mine(p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("found rules: %v\n", len(res.Rules) > 0)
	fmt.Printf("trained steps: %d\n", m.Stats().TrainSteps)
	// Output:
	// found rules: true
	// trained steps: 1000
}

// ExampleChase mines rules for the dependent attribute and chases them
// to a fixpoint over the input relation.
func ExampleChase() {
	ds, err := erminer.BuildDataset("covid", erminer.DatasetSpec{
		InputSize: 600, MasterSize: 400, Seed: 5,
	})
	if err != nil {
		panic(err)
	}
	ds.InjectErrors(erminer.NoiseConfig{Rate: 0.1, Seed: 6})
	p := ds.Problem(0)
	p.TopK = 5

	mined, err := erminer.NewEnuMinerH3(erminer.EnuMinerConfig{MaxExplored: 20000}).Mine(p)
	if err != nil {
		panic(err)
	}
	res := erminer.Chase(p.Input, p.Master, []erminer.ChaseTarget{
		{Y: p.Y, Rules: mined.RuleList()},
	}, 0)
	fmt.Printf("chase fixed cells: %v\n", res.Total > 0)
	// Output:
	// chase fixed cells: true
}
