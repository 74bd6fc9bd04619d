// This example runs the miners on user-supplied CSV data instead of the
// built-in benchmarks: it writes a small shops/postcode-directory pair
// to a temp directory, loads it with an *inferred* schema match, mines
// editing rules, exports them to JSON, and chase-repairs the input.
//
// Replace the generated files with your own CSVs to use this as a
// template.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"erminer"
)

func main() {
	inputPath, masterPath := writeSampleCSVs()
	fmt.Printf("input:  %s\nmaster: %s\n\n", inputPath, masterPath)

	// Load the two CSVs. MatchPairs is nil, so the schema match is
	// inferred from value overlap between columns.
	p, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath:  inputPath,
		MasterPath: masterPath,
		Y:          "postcode",
		Ym:         "postcode",
	})
	if err != nil {
		log.Fatal(err)
	}
	p.TopK = 10
	fmt.Printf("loaded: input %d×%d, master %d×%d, inferred match |M| = %d, η_s = %d\n",
		p.Input.NumRows(), p.Input.Schema().Len(),
		p.Master.NumRows(), p.Master.Schema().Len(),
		p.Match.Size(), p.SupportThreshold)

	res, err := erminer.NewEnuMiner(erminer.EnuMinerConfig{}).Mine(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiscovered %d rules:\n", len(res.Rules))
	for _, r := range res.Rules {
		fmt.Printf("  U=%-7.2f S=%-4d C=%.2f  %s\n",
			r.Measures.Utility, r.Measures.Support, r.Measures.Certainty,
			erminer.FormatRule(p, r.Rule))
	}

	// Export the rules as JSON — a portable artifact you can apply to a
	// future snapshot of the same data.
	data, err := erminer.ExportRules(p, res.Rules)
	if err != nil {
		log.Fatal(err)
	}
	rulesPath := filepath.Join(filepath.Dir(inputPath), "rules.json")
	if err := os.WriteFile(rulesPath, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexported rules to %s (%d bytes)\n", rulesPath, len(data))

	// Chase-repair: here a single target; given rule sets for several
	// attributes, the chase cascades fixes from one to the next.
	missing := countMissing(p)
	chase := erminer.Chase(p.Input, p.Master, []erminer.ChaseTarget{
		{Y: p.Y, Rules: res.RuleList()},
	}, 0)
	fmt.Printf("chase: %d missing postcodes before, fixed %d cells in %d rounds, %d remain\n",
		missing, chase.Total, chase.Rounds, countMissing(p))
}

func countMissing(p *erminer.Problem) int {
	n := 0
	for row := 0; row < p.Input.NumRows(); row++ {
		if p.Input.Code(row, p.Y) == erminer.Null {
			n++
		}
	}
	return n
}

// writeSampleCSVs fabricates a shops table with missing postcodes and
// the postcode directory that determines them by (district, area_code).
func writeSampleCSVs() (inputPath, masterPath string) {
	dir, err := os.MkdirTemp("", "erminer-example")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	districts := []string{"Central", "Harbour", "Hillside", "Old Town", "Riverside"}
	areas := []string{"010", "020", "030"}
	postcode := func(d, a string) string {
		h := 0
		for _, c := range d + a {
			h = h*31 + int(c)
		}
		if h < 0 {
			h = -h
		}
		return fmt.Sprintf("%06d", 100000+h%900000)
	}

	input := "shop,district,area_code,phone,postcode\n"
	for i := 0; i < 300; i++ {
		d := districts[rng.Intn(len(districts))]
		a := areas[rng.Intn(len(areas))]
		pc := postcode(d, a)
		if rng.Intn(6) == 0 {
			pc = "" // missing
		}
		input += fmt.Sprintf("Shop %03d,%s,%s,%s-%06d,%s\n", i, d, a, a, rng.Intn(1000000), pc)
	}
	master := "province,district,area_code,postcode\n"
	for _, d := range districts {
		for _, a := range areas {
			master += fmt.Sprintf("P1,%s,%s,%s\n", d, a, postcode(d, a))
		}
	}

	inputPath = filepath.Join(dir, "shops.csv")
	masterPath = filepath.Join(dir, "directory.csv")
	if err := os.WriteFile(inputPath, []byte(input), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(masterPath, []byte(master), 0o644); err != nil {
		log.Fatal(err)
	}
	return inputPath, masterPath
}
