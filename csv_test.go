package erminer_test

import (
	"maps"
	"os"
	"path/filepath"
	"testing"

	"erminer"
)

// writeCSVFixture writes a shop/directory pair in the Location style:
// postcode determined by (district, area).
func writeCSVFixture(t *testing.T) (inputPath, masterPath string) {
	t.Helper()
	dir := t.TempDir()
	inputPath = filepath.Join(dir, "shops.csv")
	masterPath = filepath.Join(dir, "directory.csv")

	input := "shop,district,area,postcode\n"
	master := "region,district,area,postcode\n"
	districts := []string{"central", "north", "south", "east"}
	for i := 0; i < 200; i++ {
		d := districts[i%4]
		a := []string{"010", "020"}[(i/4)%2]
		pc := map[string]string{
			"central010": "100001", "central020": "200001",
			"north010": "100002", "north020": "200002",
			"south010": "100003", "south020": "200003",
			"east010": "100004", "east020": "200004",
		}[d+a]
		obsPC := pc
		if i%10 == 0 {
			obsPC = "" // missing postcode to repair
		}
		input += "shop-" + string(rune('a'+i%26)) + "," + d + "," + a + "," + obsPC + "\n"
		master += "r1," + d + "," + a + "," + pc + "\n"
	}
	if err := os.WriteFile(inputPath, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(masterPath, []byte(master), 0o644); err != nil {
		t.Fatal(err)
	}
	return inputPath, masterPath
}

func TestLoadCSVProblemExplicitMatch(t *testing.T) {
	in, ms := writeCSVFixture(t)
	pairs := map[string]string{"district": "district", "area": "area"}
	p, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath:  in,
		MasterPath: ms,
		Y:          "postcode",
		Ym:         "postcode",
		MatchPairs: pairs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The dependent pair joins the match without being written into the
	// caller's map.
	if want := map[string]string{"district": "district", "area": "area"}; !maps.Equal(pairs, want) {
		t.Errorf("LoadCSVProblem changed the caller's MatchPairs to %v, want %v", pairs, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Input.NumRows() != 200 || p.Master.NumRows() != 200 {
		t.Errorf("rows = %d/%d", p.Input.NumRows(), p.Master.NumRows())
	}
	// Matched columns share dictionaries: codes are comparable.
	d := p.Input.Schema().MustIndex("district")
	dm := p.Master.Schema().MustIndex("district")
	if p.Input.Dict(d) != p.Master.Dict(dm) {
		t.Fatal("matched columns do not share a dictionary")
	}

	// Mining over the loaded problem finds (district, area) → postcode.
	p.TopK = 5
	res, err := erminer.NewEnuMiner(erminer.EnuMinerConfig{}).Mine(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules on CSV data")
	}
	top := res.Rules[0]
	if top.Measures.Certainty != 1 {
		t.Errorf("top CSV rule certainty = %g", top.Measures.Certainty)
	}

	// And the repair fills the missing postcodes.
	fixes := erminer.Repair(p, res.Rules)
	y := p.Y
	filled := erminer.WriteFixes(p.Input, y, fixes, true)
	if filled != 20 {
		t.Errorf("filled %d missing postcodes, want 20", filled)
	}
}

// Two input columns matched to one master column both take that
// column's dictionary, so each joins it on comparable codes.
func TestLoadCSVProblemManyToOneMatch(t *testing.T) {
	in, ms := writeCSVFixture(t)
	for i := 0; i < 20; i++ {
		p, err := erminer.LoadCSVProblem(erminer.CSVSpec{
			InputPath: in, MasterPath: ms, Y: "postcode", Ym: "postcode",
			MatchPairs: map[string]string{"district": "district", "area": "district"},
		})
		if err != nil {
			t.Fatal(err)
		}
		x := p.Master.Dict(p.Master.Schema().MustIndex("district"))
		for _, a := range []string{"district", "area"} {
			if p.Input.Dict(p.Input.Schema().MustIndex(a)) != x {
				t.Fatalf("load %d: input column %s does not share the master district dictionary", i, a)
			}
		}
	}
}

// A match naming two unknown input columns fails with the same error on
// every load.
func TestLoadCSVProblemMatchErrorStable(t *testing.T) {
	in, ms := writeCSVFixture(t)
	var first string
	for i := 0; i < 20; i++ {
		_, err := erminer.LoadCSVProblem(erminer.CSVSpec{
			InputPath: in, MasterPath: ms, Y: "postcode", Ym: "postcode",
			MatchPairs: map[string]string{"nope1": "district", "nope2": "area"},
		})
		if err == nil {
			t.Fatal("unknown match columns accepted")
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("load %d: error %q, load 0 said %q", i, err, first)
		}
	}
}

func TestLoadCSVProblemInferredMatch(t *testing.T) {
	in, ms := writeCSVFixture(t)
	p, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath:  in,
		MasterPath: ms,
		Y:          "postcode",
		Ym:         "postcode",
		// MatchPairs nil: inferred from value overlap + names.
	})
	if err != nil {
		t.Fatal(err)
	}
	// district and area overlap heavily and share names: both matched.
	d := p.Input.Schema().MustIndex("district")
	a := p.Input.Schema().MustIndex("area")
	if !p.Match.Matched(d) || !p.Match.Matched(a) {
		t.Error("value-overlap inference missed district/area")
	}
	// shop (input-only) must stay unmatched.
	s := p.Input.Schema().MustIndex("shop")
	if p.Match.Matched(s) {
		t.Error("input-only column matched")
	}
}

func TestLoadCSVProblemErrors(t *testing.T) {
	in, ms := writeCSVFixture(t)
	if _, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath: in, MasterPath: ms, Y: "", Ym: "",
	}); err == nil {
		t.Error("missing Y accepted")
	}
	if _, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath: in, MasterPath: ms, Y: "nope", Ym: "postcode",
	}); err == nil {
		t.Error("unknown Y accepted")
	}
	if _, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath: "/nonexistent.csv", MasterPath: ms, Y: "postcode", Ym: "postcode",
	}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestExportImportRules(t *testing.T) {
	in, ms := writeCSVFixture(t)
	p, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath: in, MasterPath: ms, Y: "postcode", Ym: "postcode",
		MatchPairs: map[string]string{"district": "district", "area": "area"},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.TopK = 5
	res, err := erminer.NewEnuMiner(erminer.EnuMinerConfig{}).Mine(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := erminer.ExportRules(p, res.Rules)
	if err != nil {
		t.Fatal(err)
	}

	// Re-import against a freshly loaded problem (different codes!).
	p2, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath: in, MasterPath: ms, Y: "postcode", Ym: "postcode",
		MatchPairs: map[string]string{"district": "district", "area": "area"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imported, err := erminer.ImportRules(p2, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(imported) != len(res.Rules) {
		t.Fatalf("imported %d rules, want %d", len(imported), len(res.Rules))
	}
	// The imported rules repair exactly like the originals.
	f1 := erminer.Repair(p, res.Rules)
	f2 := erminer.Repair(p2, imported)
	if f1.Covered != f2.Covered {
		t.Errorf("coverage differs after round-trip: %d vs %d", f1.Covered, f2.Covered)
	}
	for row := range f1.Pred {
		v1 := p.Input.Dict(p.Y).Value(f1.Pred[row])
		v2 := p2.Input.Dict(p2.Y).Value(f2.Pred[row])
		if v1 != v2 {
			t.Fatalf("row %d: fixes differ after round-trip: %q vs %q", row, v1, v2)
		}
	}
}

func TestImportRulesBadData(t *testing.T) {
	in, ms := writeCSVFixture(t)
	p, err := erminer.LoadCSVProblem(erminer.CSVSpec{
		InputPath: in, MasterPath: ms, Y: "postcode", Ym: "postcode",
		MatchPairs: map[string]string{"district": "district"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := erminer.ImportRules(p, []byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := erminer.ImportRules(p, []byte(`[{"y":"bogus","ym":"postcode"}]`)); err == nil {
		t.Error("unknown attribute accepted")
	}
}
