package main

import "testing"

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 10, end: 30},
		{start: 20, end: 50},  // overlaps the previous child
		{start: 60, end: 70},  // disjoint
		{start: 65, end: 68},  // nested inside the previous child
		{start: 90, end: 120}, // sticks out of the parent
		{start: 130, end: 140},
	}
	// Covered: [10,50) + [60,70) + [90,100) = 60.
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestAnalyseResolvesServerSpansToDeepestClientSpan(t *testing.T) {
	spans := []span{
		{op: 7, id: 1, name: spanOp, start: 0, end: 100},
		{op: 7, id: 2, parent: 1, name: spanCDREncode, start: 0, end: 5},
		{op: 7, id: 3, parent: 1, name: spanFlateClient, start: 10, end: 90},
		{op: 7, id: 4, parent: 3, name: spanFlateNext, start: 20, end: 80},
		// Server spans carry no parent; they start inside flate.next.
		{op: 7, id: 5, name: spanFlateServer, start: 30, end: 40},
		{op: 7, id: 6, name: spanServant, start: 40, end: 50},
		{op: 7, id: 7, name: spanFlateServer, start: 50, end: 55},
		// A span of an op whose root was never recorded is dropped.
		{op: 8, id: 9, name: spanServant, start: 0, end: 1},
	}
	traces := analyse(spans)
	if len(traces) != 1 {
		t.Fatalf("got %d traced ops, want 1", len(traces))
	}
	tr := traces[0]
	for _, s := range tr.spans {
		if serverSide(s.name) && s.parent != 4 {
			t.Errorf("server span %d resolved to parent %d, want 4 (flate.next)", s.id, s.parent)
		}
	}
	want := map[uint32]int64{
		1: 100 - 5 - 80, // root minus encode and flate.client
		3: 80 - 60,      // flate.client minus flate.next
		4: 60 - 25,      // flate.next minus the server spans
		5: 10, 6: 10, 7: 5, 2: 5,
	}
	for id, w := range want {
		if got := tr.self[id]; got != w {
			t.Errorf("self(span %d) = %d, want %d", id, got, w)
		}
	}
}
