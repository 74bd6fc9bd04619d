package analysis_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"erminer/internal/analysis"
)

// TestMetricManifestPinned requires the committed metric-name manifest
// to match the live names exactly, in both directions — the same
// comparison `ermvet -checks wiredrift` gates on, run from `go test`
// so a metric rename cannot land without a reviewed manifest diff.
func TestMetricManifestPinned(t *testing.T) {
	mod := loadedModule(t)
	names := analysis.CollectMetricNames(mod.Packages)
	if !reflect.DeepEqual(names, mod.Manifest.Metrics) {
		t.Errorf("live metric names diverge from %s; review the change and run ermvet -update\nlive:     %v\nmanifest: %v",
			analysis.ManifestPath, names, mod.Manifest.Metrics)
	}
}

// TestMetricDriftGates demonstrates the gate end-to-end on the real
// serve package: deleting a manifest entry makes its live literal an
// unrecorded name, and a phantom manifest entry is reported as a
// dropped metric. Either way the build fails — a name cannot change in
// only one place.
func TestMetricDriftGates(t *testing.T) {
	mod := loadedModule(t)
	servePkg := modulePackage(t, mod, "erminer/internal/serve")
	manifest := mod.Manifest

	const victim = "erminerd_requests_total"
	removed := &analysis.Manifest{Structs: manifest.Structs, Metrics: make(map[string]string, len(manifest.Metrics))}
	for k, v := range manifest.Metrics {
		if k != victim {
			removed.Metrics[k] = v
		}
	}
	gated := *mod
	gated.Manifest = removed
	diags := live(&gated, servePkg, analysis.WireDrift)
	if !hasDiag(diags, victim, "is not in the golden manifest") {
		t.Errorf("deleting %s from the manifest did not fail the gate; got %v", victim, diags)
	}

	added := &analysis.Manifest{Structs: manifest.Structs, Metrics: make(map[string]string, len(manifest.Metrics)+1)}
	for k, v := range manifest.Metrics {
		added.Metrics[k] = v
	}
	added.Metrics["erminerd_phantom_total"] = "serve"
	gated.Manifest = added
	diags = live(&gated, servePkg, analysis.WireDrift)
	if !hasDiag(diags, "erminerd_phantom_total", "is no longer emitted by package serve") {
		t.Errorf("a manifest name with no live literal did not fail the gate; got %v", diags)
	}
}

// TestRouteContractGates removes one registered route from the real
// module's table and requires httpcontract to fail the cluster package,
// whose rule-push path calls it: changing a client route string (or
// dropping its handler) cannot land silently.
func TestRouteContractGates(t *testing.T) {
	mod := loadedModule(t)
	clusterPkg := modulePackage(t, mod, "erminer/internal/cluster")
	full := mod.Routes

	const victim = "/v1/rules/stage"
	mutated := &analysis.RouteTable{}
	for _, r := range full.Routes {
		if r.Path != victim {
			mutated.Routes = append(mutated.Routes, r)
		}
	}
	if len(mutated.Routes) == len(full.Routes) {
		t.Fatalf("precondition: %s is not in the registered route table", victim)
	}
	gated := *mod
	gated.Routes = mutated
	diags := live(&gated, clusterPkg, analysis.HTTPContract)
	if !hasDiag(diags, victim, "no handler registers that path") {
		t.Errorf("unregistering %s did not fail the cluster client; got %v", victim, diags)
	}

	// With the full table the cluster package is clean, so the finding
	// above is attributable to the removal alone. The module's golden
	// manifest resolves the serve-side payload structs the cluster
	// handlers hand to encoding/json.
	if diags := live(mod, clusterPkg, analysis.HTTPContract); len(diags) != 0 {
		t.Errorf("cluster is not httpcontract-clean against the full route table: %v", diags)
	}
}

// TestLockOrderPushFindings pins the genuine blocking-under-mutex
// findings on the coordinator's push path: pushAll parks on a WaitGroup
// while pushMu serializes fleet pushes, at exactly three call sites,
// each suppressed with a written-down rationale. If the suppression or
// the detection disappears, this fails — the findings are real and must
// stay visible as documented decisions, not vanish.
func TestLockOrderPushFindings(t *testing.T) {
	mod := loadedModule(t)
	clusterPkg := modulePackage(t, mod, "erminer/internal/cluster")

	var got []analysis.Diagnostic
	for _, d := range mod.Run(clusterPkg, []*analysis.Check{analysis.LockOrder}) {
		if d.Check == "lockorder" {
			got = append(got, d)
		}
	}
	if len(got) != 3 {
		t.Fatalf("cluster has %d lockorder findings, want the 3 pushAll sites: %v", len(got), got)
	}
	for _, d := range got {
		if filepath.Base(d.Pos.Filename) != "handlers.go" {
			t.Errorf("finding outside handlers.go: %s", d)
		}
		if !strings.Contains(d.Message, "pushAll") || !strings.Contains(d.Message, "Coordinator.pushMu") {
			t.Errorf("finding does not describe the pushAll-under-pushMu wait: %s", d)
		}
		if !d.Suppressed || d.Reason == "" {
			t.Errorf("push-path finding must be suppressed with a rationale, got suppressed=%v reason=%q: %s",
				d.Suppressed, d.Reason, d)
		}
	}
}

func hasDiag(diags []analysis.Diagnostic, substr, msg string) bool {
	for _, d := range diags {
		if strings.Contains(d.Message, substr) && strings.Contains(d.Message, msg) {
			return true
		}
	}
	return false
}
