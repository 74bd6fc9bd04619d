package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{TraceID: 1, SpanID: 1, Name: "request", StartNS: 0, EndNS: 100},
		// Two overlapping children cover [10, 40): counted once.
		{TraceID: 1, SpanID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{TraceID: 1, SpanID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 40},
		// A child running past its parent is clipped to [90, 100).
		{TraceID: 1, SpanID: 4, Parent: 1, Name: "a", StartNS: 90, EndNS: 120},
		// A grandchild is subtracted from its parent only.
		{TraceID: 1, SpanID: 5, Parent: 3, Name: "c", StartNS: 25, EndNS: 35},
		{TraceID: 2, SpanID: 6, Name: "request", StartNS: 200, EndNS: 210},
	}
	lt := aggregate(spans)
	want := map[string]int64{
		"request": (100 - 30 - 10) + 10,
		"a":       20 + 30,
		"b":       20 - 10,
		"c":       10,
	}
	for name, ns := range want {
		if lt.selfNS[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, lt.selfNS[name], ns)
		}
	}
	if lt.calls["a"] != 2 || lt.calls["request"] != 2 {
		t.Errorf("calls = %v", lt.calls)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start(1, 0, "x")
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr = newTracer()
	root := tr.start(7, 0, "request")
	child := tr.start(7, root, "serve.decode")
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].SpanID || s[0].EndNS < s[1].EndNS || s[1].StartNS < s[0].StartNS {
		t.Errorf("spans = %+v", s)
	}
}

func TestFirstTracesKeepsWholeOperations(t *testing.T) {
	var spans []span
	for tid := int64(1); tid <= 4; tid++ {
		for k := int64(0); k < tid; k++ {
			spans = append(spans, span{TraceID: tid, SpanID: int64(len(spans) + 1)})
		}
	}
	got := firstTraces(spans, 7) // traces 1, 2 and 3 hold 6 spans; 4 would pass 7
	if len(got) != 6 {
		t.Fatalf("kept %d spans, want 6", len(got))
	}
	for _, s := range got {
		if s.TraceID == 4 {
			t.Errorf("kept a span of trace 4")
		}
	}
}
