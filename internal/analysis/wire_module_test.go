package analysis_test

import (
	"strings"
	"testing"

	"erminer/internal/analysis"
)

const checkpointWireKey = "erminer/internal/rlminer.checkpointWire"

// loadModuleWire returns the shared module, the live wire shapes, and
// the package owning the training checkpoint's wire struct.
func loadModuleWire(t *testing.T) (*analysis.Module, map[string]analysis.WireShape, *analysis.Package) {
	t.Helper()
	mod := loadedModule(t)
	return mod, analysis.CollectWireShapes(mod.Packages), modulePackage(t, mod, "erminer/internal/rlminer")
}

// TestWireShapesPinned fails the moment any //ermvet:wire struct in the
// module drifts from the committed golden manifest — the same
// comparison `ermvet -checks wiredrift` gates on, run from `go test` so
// a shape change cannot land without touching the manifest.
func TestWireShapesPinned(t *testing.T) {
	mod, shapes, _ := loadModuleWire(t)
	manifest := mod.Manifest
	for key, shape := range shapes {
		entry, ok := manifest.Structs[key]
		if !ok {
			t.Errorf("wire struct %s is missing from %s; run ermvet -update", key, analysis.ManifestPath)
			continue
		}
		if entry.Hash != shape.Hash {
			t.Errorf("wire struct %s drifted from the manifest (recorded %.12s, live %.12s); bump its version constant and run ermvet -update",
				key, entry.Hash, shape.Hash)
		}
		if entry.Version != shape.Version {
			t.Errorf("wire struct %s: version constant is %d but the manifest records %d; run ermvet -update",
				key, shape.Version, entry.Version)
		}
	}
	for key := range manifest.Structs {
		if _, ok := shapes[key]; !ok {
			t.Errorf("manifest entry %s has no //ermvet:wire struct in the module; run ermvet -update", key)
		}
	}
	if _, ok := shapes[checkpointWireKey]; !ok {
		t.Errorf("the training checkpoint struct %s must stay a gated wire root", checkpointWireKey)
	}
}

// TestWireDriftGatesCheckpoint demonstrates the gate end-to-end on the
// real checkpoint struct: against a manifest recording a different
// shape for checkpointWire at the same version — exactly what editing
// the struct without bumping checkpointWireVersion produces — the
// wiredrift check must fail the rlminer package.
func TestWireDriftGatesCheckpoint(t *testing.T) {
	mod, shapes, rlminerPkg := loadModuleWire(t)

	mutated := &analysis.Manifest{Structs: make(map[string]analysis.WireShape, len(mod.Manifest.Structs)), Metrics: mod.Manifest.Metrics}
	for k, v := range mod.Manifest.Structs {
		mutated.Structs[k] = v
	}
	entry := mutated.Structs[checkpointWireKey]
	if entry.Version != shapes[checkpointWireKey].Version {
		t.Fatalf("precondition: manifest and live version differ for %s", checkpointWireKey)
	}
	// Simulate a field rename/add/reorder: the recorded shape no longer
	// matches the source, while the version constant is unchanged.
	entry.Hash = strings.Repeat("0", 64)
	mutated.Structs[checkpointWireKey] = entry

	gated := *mod
	gated.Manifest = mutated
	diags := live(&gated, rlminerPkg, analysis.WireDrift)
	foundGate := false
	for _, d := range diags {
		if strings.Contains(d.Message, "changed without a version bump") &&
			strings.Contains(d.Message, "checkpointWire") {
			foundGate = true
		}
	}
	if !foundGate {
		t.Errorf("wiredrift did not gate a checkpoint shape change without a version bump; got %v", diags)
	}

	// The same mutation must also make -update refuse to regenerate, so
	// the manifest cannot be force-synced around the gate.
	if _, err := analysis.UpdateManifest(mutated, []*analysis.Package{rlminerPkg}); err == nil ||
		!strings.Contains(err.Error(), "without a version bump") {
		t.Errorf("UpdateManifest should refuse an unbumped checkpoint shape change, got err=%v", err)
	}
}
