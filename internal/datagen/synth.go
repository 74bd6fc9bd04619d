package datagen

import (
	"fmt"
	"math/rand"

	"erminer/internal/relation"
)

// SynthSpec parameterises the fully synthetic scalability world used to
// probe the paper's headline claim that RLMiner "scales well on the
// datasets with many attributes and large domains" (abstract, §V): the
// enumeration space N_enum = 2^|M| · Π(|dom(A)|+1) grows exponentially
// in NumAttrs and polynomially in DomainSize, so sweeping them separates
// the miners far more sharply than row counts do.
type SynthSpec struct {
	// NumAttrs is the number of evidence attributes (all matched);
	// the schema also carries a guard attribute and Y.
	NumAttrs int
	// DomainSize is the domain cardinality of every evidence attribute.
	DomainSize int
}

// synthRuleAttrs is how many evidence attributes determine Y (the
// planted rule's LHS width); synthNoiseRate is the fraction of entities
// with an idiosyncratic Y.
const (
	synthRuleAttrs = 2
	synthNoiseRate = 0.05
)

// Synth returns a parametric world: attributes a0..a{n-1} with uniform
// domains of the requested size, a guard G (the divergent sub-population
// is absent from master data), and Y determined by the first
// synthRuleAttrs attributes.
func Synth(spec SynthSpec) *World {
	if spec.NumAttrs < synthRuleAttrs {
		panic(fmt.Sprintf("datagen: Synth needs at least %d attributes", synthRuleAttrs))
	}
	var inAttrs, msAttrs []relation.Attribute
	for i := 0; i < spec.NumAttrs; i++ {
		a := relation.Attribute{Name: fmt.Sprintf("a%d", i)}
		inAttrs = append(inAttrs, a)
		msAttrs = append(msAttrs, a)
	}
	inAttrs = append(inAttrs, relation.Attribute{Name: "g"}) // input-only guard
	inAttrs = append(inAttrs, relation.Attribute{Name: "y"})
	msAttrs = append(msAttrs, relation.Attribute{Name: "y"})

	inputSchema := relation.NewSchema(inAttrs...)
	masterSchema := relation.NewSchema(msAttrs...)
	yDomain := 8

	gen := func(rng *rand.Rand) Entity {
		e := Entity{}
		h := 0
		for i := 0; i < spec.NumAttrs; i++ {
			v := rng.Intn(spec.DomainSize)
			e[fmt.Sprintf("a%d", i)] = fmt.Sprintf("v%d", v)
			if i < synthRuleAttrs {
				h = h*31 + v
			}
		}
		if h < 0 {
			h = -h
		}
		y := h % yDomain
		g := "ok"
		switch {
		case rng.Float64() < 0.15:
			// The divergent sub-population: arbitrary Y, absent from
			// the master data, guarded by g.
			g = "odd"
			y = rng.Intn(yDomain)
		case rng.Float64() < synthNoiseRate:
			y = rng.Intn(yDomain)
		}
		e["g"] = g
		e["y"] = fmt.Sprintf("y%d", y)
		return e
	}

	render := func(names []string) func(e Entity) []string {
		return func(e Entity) []string {
			out := make([]string, len(names))
			for i, n := range names {
				out[i] = e[n]
			}
			return out
		}
	}

	return &World{
		Name:            fmt.Sprintf("synth-a%d-d%d", spec.NumAttrs, spec.DomainSize),
		InputSchema:     inputSchema,
		MasterSchema:    masterSchema,
		YName:           "y",
		YmName:          "y",
		DefaultSupport:  100,
		PaperInputSize:  10000,
		PaperMasterSize: 2000,
		WorldSize:       15000,
		Gen:             gen,
		InMaster:        func(e Entity) bool { return e["g"] == "ok" },
		RenderInput:     render(inputSchema.Names()),
		RenderMaster:    render(masterSchema.Names()),
	}
}
