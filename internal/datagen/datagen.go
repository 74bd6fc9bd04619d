// Package datagen generates the four experimental datasets of the paper
// (§V-A1): Adult, Covid-19, Nursery and Location.
//
// The paper uses public UCI/Kaggle data plus a Chinese-government postcode
// table, none of which are shipped here. Instead, each dataset is a
// deterministic synthetic world that reproduces the original's schema
// width, attribute types, domain-size profile and — crucially — the
// dependency structure that makes editing rules discoverable, including a
// divergent sub-population that is absent from (or mislabelled relative
// to) the master data, so that useful rules need input-side pattern
// conditions exactly as in the paper's motivating example
// (t_p[Overseas] = No). See DESIGN.md §1 for the substitution argument.
//
// Every generator follows the same protocol:
//
//  1. generate a world of entities (complete, clean records);
//  2. render the master relation from a filtered entity sample (the
//     divergent sub-population is excluded, as national records exclude
//     overseas infections in the paper's example);
//  3. render the clean input relation from an entity sample drawn either
//     independently (the paper's default protocol) or with a controlled
//     duplicate rate d% (§V-C2);
//  4. the caller injects errors into the input with package errgen.
package datagen

import (
	"fmt"
	"math/rand"

	"erminer/internal/relation"
	"erminer/internal/schema"
)

// Entity is one complete world record: field name → value.
type Entity map[string]string

// World describes a synthetic dataset generator.
type World struct {
	// Name identifies the dataset ("adult", "covid", "nursery",
	// "location").
	Name string
	// InputSchema and MasterSchema are the schemas R and R_m. Matched
	// attributes share a Domain name.
	InputSchema  *relation.Schema
	MasterSchema *relation.Schema
	// YName / YmName name the dependent attribute pair (Y, Y_m).
	YName, YmName string
	// DefaultSupport is the paper's default support threshold η_s for
	// this dataset, at the paper's data sizes. Builders scale it
	// proportionally when a smaller input is requested.
	DefaultSupport int
	// PaperInputSize / PaperMasterSize are the sizes in Table I.
	PaperInputSize, PaperMasterSize int
	// WorldSize is the number of entities generated.
	WorldSize int
	// Gen draws one entity.
	Gen func(rng *rand.Rand) Entity
	// InMaster reports whether an entity may appear in the master data.
	InMaster func(e Entity) bool
	// RenderInput / RenderMaster project an entity onto the schemas.
	RenderInput  func(e Entity) []string
	RenderMaster func(e Entity) []string
	// MasterRows, when non-nil, overrides entity-based master sampling:
	// the master relation comes from an external directory (e.g. the
	// Location world's postcode table) rather than the entity world.
	MasterRows func(rng *rand.Rand, n int) [][]string
}

// Spec selects the size and sampling protocol for one built dataset.
type Spec struct {
	// InputSize and MasterSize are tuple counts; zero means the paper's
	// Table I sizes.
	InputSize, MasterSize int
	// DuplicateRate, when >= 0, switches to the §V-C2 protocol where
	// this fraction of input tuples correspond to master entities.
	// Negative (the default from DefaultSpec) means independent samples.
	DuplicateRate float64
	// Seed drives all randomness in generation and sampling.
	Seed int64
}

// DefaultSpec returns the paper's default protocol at the given sizes.
func DefaultSpec(inputSize, masterSize int, seed int64) Spec {
	return Spec{InputSize: inputSize, MasterSize: masterSize, DuplicateRate: -1, Seed: seed}
}

// Dataset is a fully materialised experiment input: clean input relation,
// master relation, schema match and dependent attribute pair.
type Dataset struct {
	Name string
	// Input is the clean input relation D (before error injection).
	Input *relation.Relation
	// Master is the master relation D_m.
	Master *relation.Relation
	// Match is the schema match M.
	Match *schema.Match
	// Y and Ym index the dependent attributes in R and R_m.
	Y, Ym int
	// SupportThreshold is η_s scaled to the built input size.
	SupportThreshold int
}

// Build materialises the world under the given spec.
func (w *World) Build(spec Spec) (*Dataset, error) {
	if spec.InputSize == 0 {
		spec.InputSize = w.PaperInputSize
	}
	if spec.MasterSize == 0 {
		spec.MasterSize = w.PaperMasterSize
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	entities := make([]Entity, w.WorldSize)
	var masterPool []Entity
	for i := range entities {
		e := w.Gen(rng)
		entities[i] = e
		if w.InMaster == nil || w.InMaster(e) {
			masterPool = append(masterPool, e)
		}
	}

	// Master sample (entity-based unless the world supplies a directory).
	var masterEnts []Entity
	var masterRows [][]string
	if w.MasterRows != nil {
		masterRows = w.MasterRows(rng, spec.MasterSize)
	} else {
		if len(masterPool) == 0 {
			return nil, fmt.Errorf("datagen: world %q produced no master-eligible entities", w.Name)
		}
		nMaster := spec.MasterSize
		if nMaster > len(masterPool) {
			nMaster = len(masterPool)
		}
		masterIdx := rng.Perm(len(masterPool))[:nMaster]
		masterEnts = make([]Entity, nMaster)
		for i, j := range masterIdx {
			masterEnts[i] = masterPool[j]
		}
	}

	// Input sample.
	inputEnts := make([]Entity, 0, spec.InputSize)
	if spec.DuplicateRate >= 0 && len(masterEnts) > 0 {
		for i := 0; i < spec.InputSize; i++ {
			if rng.Float64() < spec.DuplicateRate {
				inputEnts = append(inputEnts, masterEnts[rng.Intn(len(masterEnts))])
			} else {
				inputEnts = append(inputEnts, entities[rng.Intn(len(entities))])
			}
		}
	} else {
		perm := rng.Perm(len(entities))
		for i := 0; i < spec.InputSize; i++ {
			inputEnts = append(inputEnts, entities[perm[i%len(perm)]])
		}
	}

	pool := relation.NewPool()
	input := relation.New(w.InputSchema, pool)
	for _, e := range inputEnts {
		input.AppendRow(w.RenderInput(e))
	}
	master := relation.New(w.MasterSchema, pool)
	if masterRows != nil {
		for _, row := range masterRows {
			master.AppendRow(row)
		}
	} else {
		for _, e := range masterEnts {
			master.AppendRow(w.RenderMaster(e))
		}
	}

	m := schema.AutoMatch(w.InputSchema, w.MasterSchema)
	y := w.InputSchema.MustIndex(w.YName)
	ym := w.MasterSchema.MustIndex(w.YmName)

	eta := w.DefaultSupport
	if spec.InputSize != w.PaperInputSize && w.PaperInputSize > 0 {
		eta = w.DefaultSupport * spec.InputSize / w.PaperInputSize
		if eta < 5 {
			eta = 5
		}
	}

	return &Dataset{
		Name:             w.Name,
		Input:            input,
		Master:           master,
		Match:            m,
		Y:                y,
		Ym:               ym,
		SupportThreshold: eta,
	}, nil
}

// ByName returns the named world. Valid names: adult, covid, nursery,
// location.
func ByName(name string) (*World, error) {
	switch name {
	case "adult":
		return Adult(), nil
	case "covid":
		return Covid(), nil
	case "nursery":
		return Nursery(), nil
	case "location":
		return Location(), nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q", name)
	}
}

// AllNames lists the dataset names in the paper's Table I order.
func AllNames() []string { return []string{"adult", "covid", "nursery", "location"} }

// pick returns a uniformly random element of vals.
func pick(rng *rand.Rand, vals []string) string {
	return vals[rng.Intn(len(vals))]
}

// pickZipf returns an element of vals with a skewed (harmonic) weight so
// early elements are more frequent, approximating real categorical
// distributions.
func pickZipf(rng *rand.Rand, vals []string) string {
	// Weight of element i is 1/(i+1); total = H(n).
	n := len(vals)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x <= 0 {
			return vals[i]
		}
	}
	return vals[n-1]
}
