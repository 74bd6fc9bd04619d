package analysis_test

import (
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"

	"erminer/internal/analysis"
)

// TestGuardedByInventory pins the guarded-by annotations seeded on the
// serving and cache layers. Deleting any single annotation fails this
// test, so the lock discipline cannot silently lose its machine
// checking; adding one extends the inventory deliberately.
func TestGuardedByInventory(t *testing.T) {
	want := map[string][]string{
		"../serve/server.go": {
			"Server.model=modelMu",
			"Server.p=dictMu",
			"Server.staged=stagedMu",
		},
		"../serve/jobs.go": {
			"job.activated=mu",
			"job.err=mu",
			"job.explored=mu",
			"job.finished=mu",
			"job.rules=mu",
			"job.started=mu",
			"job.state=mu",
			"job.step=mu",
			"job.total=mu",
			"jobManager.closed=mu",
			"jobManager.jobs=mu",
			"jobManager.nextID=mu",
			"jobManager.order=mu",
			"jobManager.queued=mu",
			"jobManager.running=mu",
		},
		"../metrics/latency.go": {
			"LatencyRing.buf=mu",
			"LatencyRing.n=mu",
		},
		"../measure/cache.go": {
			"IndexCache.entries=mu",
		},
		"../measure/posting.go": {
			"ColumnIndex.all=mu",
			"ColumnIndex.attrs=mu",
			"ColumnIndex.groups=mu",
			"ColumnIndex.version=mu",
		},
	}
	for file, fields := range want {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		var got []string
		for _, a := range analysis.GuardedByAnnotations(f) {
			got = append(got, a.Struct+"."+a.Field+"="+a.Mutex)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("%s guarded-by inventory:\ngot:  %v\nwant: %v", file, got, fields)
		}
	}
}
