package erminer

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"os"
	"strconv"

	"erminer/internal/relation"
	"erminer/internal/schema"
)

// CSVSpec describes how to build a discovery problem from two CSV files
// (with header rows). This is the path for running the miners on your
// own data rather than the built-in benchmarks.
type CSVSpec struct {
	// InputPath and MasterPath are the CSV files for D and D_m.
	InputPath, MasterPath string
	// Y and Ym name the dependent attribute in each file.
	Y, Ym string
	// MatchPairs maps input column names to master column names. Nil
	// means the match is inferred from value overlap (schema matching).
	// Several input columns may match one master column.
	MatchPairs map[string]string
	// SupportThreshold is η_s; zero derives 2.5% of the input size
	// (min 5), matching the paper's Adult/Nursery ratio.
	SupportThreshold int
}

// LoadCSVProblem reads the two CSV files, establishes the schema match
// (given or inferred), and builds a Problem whose matched columns share
// value dictionaries — the invariant the rule evaluator relies on.
// Input columns whose non-empty values all parse as numbers, with more
// than 20 distinct values, are continuous (encoded as N_split ranges
// instead of one dimension per value).
func LoadCSVProblem(spec CSVSpec) (*Problem, error) {
	inHeader, inRows, err := readCSVRaw(spec.InputPath)
	if err != nil {
		return nil, fmt.Errorf("erminer: input CSV: %w", err)
	}
	msHeader, msRows, err := readCSVRaw(spec.MasterPath)
	if err != nil {
		return nil, fmt.Errorf("erminer: master CSV: %w", err)
	}

	if spec.Y == "" || spec.Ym == "" {
		return nil, fmt.Errorf("erminer: CSVSpec.Y and Ym are required")
	}
	pairs := maps.Clone(spec.MatchPairs)
	if pairs == nil {
		pairs = inferPairsByValues(inHeader, inRows, msHeader, msRows)
	}
	pairs[spec.Y] = spec.Ym // the dependent pair joins the match, not the caller's map

	// A matched master column names the domain it shares with every
	// input column matched to it.
	inAttrs := make([]relation.Attribute, len(inHeader))
	for i, name := range inHeader {
		a := relation.Attribute{Name: name, Domain: "in:" + name}
		if m, ok := pairs[name]; ok {
			a.Domain = "match:" + m
		}
		if looksContinuous(column(inRows, i)) {
			a.Type = relation.Continuous
		}
		inAttrs[i] = a
	}
	matched := make(map[string]bool, len(pairs))
	for _, m := range pairs {
		matched[m] = true
	}
	msAttrs := make([]relation.Attribute, len(msHeader))
	for i, name := range msHeader {
		a := relation.Attribute{Name: name, Domain: "ms:" + name}
		if matched[name] {
			a.Domain = "match:" + name
		}
		msAttrs[i] = a
	}

	inSchema := relation.NewSchema(inAttrs...)
	msSchema := relation.NewSchema(msAttrs...)
	pool := relation.NewPool()
	input := relation.New(inSchema, pool)
	for _, row := range inRows {
		input.AppendRow(row)
	}
	master := relation.New(msSchema, pool)
	for _, row := range msRows {
		master.AppendRow(row)
	}

	m, err := schema.FromNames(inSchema, msSchema, pairs)
	if err != nil {
		return nil, err
	}
	y := inSchema.Index(spec.Y)
	if y < 0 {
		return nil, fmt.Errorf("erminer: input CSV has no column %q", spec.Y)
	}
	ym := msSchema.Index(spec.Ym)
	if ym < 0 {
		return nil, fmt.Errorf("erminer: master CSV has no column %q", spec.Ym)
	}

	eta := spec.SupportThreshold
	if eta == 0 {
		eta = len(inRows) / 40
		if eta < 5 {
			eta = 5
		}
	}
	return &Problem{
		Input:            input,
		Master:           master,
		Match:            m,
		Y:                y,
		Ym:               ym,
		SupportThreshold: eta,
	}, nil
}

func readCSVRaw(path string) (header []string, rows [][]string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	//ermvet:ignore errdrop read-only descriptor; closing cannot lose data
	defer f.Close()
	return readCSV(f)
}

// readCSV parses a header row plus data rows from r. Splitting this off
// from the file handling gives the fuzz target a pure []byte entry point.
func readCSV(r io.Reader) (header []string, rows [][]string, err error) {
	cr := csv.NewReader(r)
	header, err = cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("reading header: %w", err)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, rec)
	}
	return header, rows, nil
}

func column(rows [][]string, i int) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r[i])
	}
	return out
}

// looksContinuous reports whether every non-empty value parses as a
// number and more than 20 distinct values occur.
func looksContinuous(vals []string) bool {
	distinct := make(map[string]struct{})
	for _, v := range vals {
		if v == "" {
			continue
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return false
		}
		distinct[v] = struct{}{}
	}
	return len(distinct) > 20
}

// inferPairsByValues matches columns by Jaccard overlap of their value
// sets plus a same-name bonus, over raw records (the relations are not
// built yet at this point). Each input column, in header order, takes
// the best-scoring master column not yet taken.
func inferPairsByValues(inHeader []string, inRows [][]string, msHeader []string, msRows [][]string) map[string]string {
	set := func(vals []string) map[string]struct{} {
		out := make(map[string]struct{})
		for _, v := range vals {
			if v != "" {
				out[v] = struct{}{}
			}
		}
		return out
	}
	inSets := make([]map[string]struct{}, len(inHeader))
	for i := range inHeader {
		inSets[i] = set(column(inRows, i))
	}
	msSets := make([]map[string]struct{}, len(msHeader))
	for i := range msHeader {
		msSets[i] = set(column(msRows, i))
	}

	pairs := make(map[string]string)
	usedMaster := make(map[int]bool)
	for i, inName := range inHeader {
		best, bestScore := -1, 0.3
		for j, msName := range msHeader {
			if usedMaster[j] {
				continue
			}
			score := jaccardSets(inSets[i], msSets[j])
			if inName == msName {
				score += 0.25
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
		if best >= 0 {
			pairs[inName] = msHeader[best]
			usedMaster[best] = true
		}
	}
	return pairs
}

func jaccardSets(a, b map[string]struct{}) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, big := a, b
	if len(small) > len(big) {
		small, big = big, small
	}
	inter := 0
	for v := range small {
		if _, ok := big[v]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
