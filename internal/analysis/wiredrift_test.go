package analysis_test

import (
	"strings"
	"testing"

	"erminer/internal/analysis"
)

const wireFixtureKey = "fixture/wiredrift/b.payload"

// loadWireFixture loads the shape fixture's module and its collected
// live shape.
func loadWireFixture(t *testing.T) (*analysis.Module, analysis.WireShape) {
	t.Helper()
	mod := loadFixture(t, "wiredrift/b")
	shapes := analysis.CollectWireShapes(mod.Packages)
	shape, ok := shapes[wireFixtureKey]
	if !ok {
		t.Fatalf("CollectWireShapes has no %s; got %v", wireFixtureKey, shapes)
	}
	return mod, shape
}

// runWireDrift runs just the wiredrift check against one manifest.
func runWireDrift(mod *analysis.Module, m *analysis.Manifest) []analysis.Diagnostic {
	gated := *mod
	gated.Manifest = m
	return live(&gated, mod.Packages[0], analysis.WireDrift)
}

func manifestWith(shape analysis.WireShape) *analysis.Manifest {
	return &analysis.Manifest{Structs: map[string]analysis.WireShape{wireFixtureKey: shape}}
}

func TestWireShapeCollection(t *testing.T) {
	_, shape := loadWireFixture(t)
	if shape.Version != 2 {
		t.Errorf("Version = %d, want 2 (payloadVersion)", shape.Version)
	}
	if len(shape.Hash) != 64 {
		t.Errorf("Hash = %q, want a sha256 hex digest", shape.Hash)
	}
	wantFields := []string{"A int", "B string", "C fixture/wiredrift/b.inner"}
	if len(shape.Fields) != len(wantFields) {
		t.Fatalf("Fields = %v, want %v", shape.Fields, wantFields)
	}
	for i := range wantFields {
		if shape.Fields[i] != wantFields[i] {
			t.Errorf("Fields[%d] = %q, want %q", i, shape.Fields[i], wantFields[i])
		}
	}
}

func TestWireDriftGate(t *testing.T) {
	mod, shape := loadWireFixture(t)

	t.Run("in_sync", func(t *testing.T) {
		if diags := runWireDrift(mod, manifestWith(shape)); len(diags) != 0 {
			t.Errorf("in-sync manifest should be clean, got %v", diags)
		}
	})

	t.Run("shape_changed_without_bump", func(t *testing.T) {
		// A drifted hash at the same version is exactly what a field
		// rename without a version bump produces.
		drifted := shape
		drifted.Hash = strings.Repeat("0", 64)
		diags := runWireDrift(mod, manifestWith(drifted))
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "changed without a version bump") {
			t.Errorf("want one 'changed without a version bump' finding, got %v", diags)
		}
	})

	t.Run("version_bumped_without_regen", func(t *testing.T) {
		stale := shape
		stale.Version = 1
		stale.Hash = strings.Repeat("0", 64)
		diags := runWireDrift(mod, manifestWith(stale))
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "regenerate the manifest with ermvet -update") {
			t.Errorf("want one 'regenerate the manifest' finding, got %v", diags)
		}
	})

	t.Run("version_mismatch_same_shape", func(t *testing.T) {
		mismatched := shape
		mismatched.Version = 3
		diags := runWireDrift(mod, manifestWith(mismatched))
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "manifest records 3 for an identical shape") {
			t.Errorf("want one version-mismatch finding, got %v", diags)
		}
	})

	t.Run("missing_entry", func(t *testing.T) {
		diags := runWireDrift(mod, &analysis.Manifest{Structs: map[string]analysis.WireShape{}})
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "not in the golden manifest") {
			t.Errorf("want one missing-entry finding, got %v", diags)
		}
	})

	t.Run("stale_entry", func(t *testing.T) {
		m := manifestWith(shape)
		m.Structs["fixture/wiredrift/b.gone"] = analysis.WireShape{Version: 1, Hash: "x"}
		diags := runWireDrift(mod, m)
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "fixture/wiredrift/b.gone has no //ermvet:wire struct") {
			t.Errorf("want one stale-entry finding, got %v", diags)
		}
	})
}

func TestUpdateWireManifest(t *testing.T) {
	mod, shape := loadWireFixture(t)

	// First generation (no old manifest) succeeds.
	m, err := analysis.UpdateManifest(nil, mod.Packages)
	if err != nil {
		t.Fatalf("first generation: %v", err)
	}
	if got := m.Structs[wireFixtureKey]; got.Hash != shape.Hash || got.Version != shape.Version {
		t.Errorf("generated entry %+v does not match live shape %+v", got, shape)
	}

	// Shape drifted but the version constant was not bumped: refuse.
	frozen := shape
	frozen.Hash = strings.Repeat("0", 64)
	if _, err := analysis.UpdateManifest(manifestWith(frozen), mod.Packages); err == nil ||
		!strings.Contains(err.Error(), "without a version bump") {
		t.Errorf("want refusal for unbumped shape change, got err=%v", err)
	}

	// Shape drifted and the version was bumped (manifest holds the old
	// version): regeneration proceeds.
	old := frozen
	old.Version = 1
	m, err = analysis.UpdateManifest(manifestWith(old), mod.Packages)
	if err != nil {
		t.Fatalf("bumped regeneration: %v", err)
	}
	if got := m.Structs[wireFixtureKey]; got.Hash != shape.Hash || got.Version != 2 {
		t.Errorf("regenerated entry %+v does not match live shape", got)
	}
}
