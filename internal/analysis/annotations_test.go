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
			"job.rulesJSON=mu",
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

// TestHotpathInventory pins the //ermvet:hotpath roots and
// //ermvet:coldpath prunes seeded on the columnar repair path and the
// DQN training step. Deleting
// an annotation fails this test, so the allocation budget cannot
// silently shrink; a "cold:" entry records a deliberate prune and its
// rationale's presence is enforced by the allocbudget check itself.
func TestHotpathInventory(t *testing.T) {
	want := map[string][]string{
		"../measure/measure.go": {
			"(*Evaluator).CoveredCandidates",
			"(*Evaluator).Evaluate",
			"(*Evaluator).ReleaseCover",
			"(*Evaluator).columnarFullCover",
			"(*Evaluator).filterCover",
			"(*Evaluator).getCover",
			"(*Evaluator).ruleProjection",
			"cold:(*Evaluator).evaluateScalar",
			"cold:(*Evaluator).fullScanCover",
		},
		"../measure/posting.go": {
			"cold:(*ColumnIndex).sync",
			"condRows",
			"intersectInto",
			"mergeInto",
			"subtractInto",
		},
		"../measure/groups.go": {
			"appendGroupKey",
			"appendLHSKey",
		},
		"../repair/repair.go": {
			"applyRule",
		},
		"../nn/matrix.go": {
			"MatMul",
			"MatMulABT",
			"MatMulATB",
			"cold:grow",
			"cold:shapePanic",
		},
		"../nn/layer.go": {
			"(*Dense).Backward",
			"(*Dense).Forward",
			"(*ReLU).Backward",
			"(*ReLU).Forward",
		},
		"../nn/optim.go": {
			"(*Adam).Step",
			"cold:(*Adam).initMoments",
		},
		"../rl/dqn.go": {
			"(*Agent).TrainStep",
		},
	}
	for file, fns := range want {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		var got []string
		for _, a := range analysis.HotpathAnnotations(f) {
			name := a.Func
			if a.Cold {
				name = "cold:" + name
			}
			got = append(got, name)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, fns) {
			t.Errorf("%s hotpath inventory:\ngot:  %v\nwant: %v", file, got, fns)
		}
	}
}
