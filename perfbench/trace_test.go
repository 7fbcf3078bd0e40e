package main

import "testing"

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "op", Start: 0, End: 100},
		// Two overlapping children cover [10, 50]; a third covers [60, 70];
		// a fourth reaches past the parent and counts only up to 100.
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{Trace: 1, ID: 5, Parent: 1, Name: "d", Start: 95, End: 120},
		// A grandchild is subtracted from its parent only.
		{Trace: 1, ID: 6, Parent: 2, Name: "e", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10 - 5, 2: 20, 3: 20, 4: 10, 5: 25, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeOfChildOutsideParentIsIgnored(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "op", Start: 0, End: 10},
		{Trace: 1, ID: 2, Parent: 1, Name: "late", Start: 20, End: 30},
	}
	if got := selfTimes(spans)[1]; got != 10 {
		t.Fatalf("self time %d, want 10", got)
	}
}

func TestNilRecorderRecordsAndAllocatesNothing(t *testing.T) {
	var r *recorder
	allocs := testing.AllocsPerRun(100, func() {
		tk := r.begin(0, 0, "op")
		r.end(r.begin(tk.trace, tk.id, "wire.decode"))
		r.end(tk)
	})
	if allocs != 0 {
		t.Fatalf("untraced span calls allocate %.1f times per op", allocs)
	}
	if r.len() != 0 {
		t.Fatalf("nil recorder holds %d spans", r.len())
	}
}

func TestRecorderSharesTraceIDs(t *testing.T) {
	r := newRecorder()
	root := r.begin(0, 0, "op")
	child := r.begin(root.trace, root.id, "engine.solve")
	r.end(child)
	r.end(root)
	if r.len() != 2 {
		t.Fatalf("%d spans, want 2", r.len())
	}
	for _, s := range r.spans {
		if s.Trace != root.trace {
			t.Errorf("span %s has trace %d, want %d", s.Name, s.Trace, root.trace)
		}
	}
	if r.spans[0].Parent != root.id {
		t.Errorf("child parent %d, want %d", r.spans[0].Parent, root.id)
	}
}
