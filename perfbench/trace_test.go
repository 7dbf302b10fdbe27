package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "report", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "build", Parent: 0, Start: ms(0), End: ms(10)},
		{Name: "run", Parent: 0, Start: ms(20), End: ms(60)},
		{Name: "sub", Parent: 2, Start: ms(30), End: ms(40)},
		// Two overlapping children count once, and the part of a child
		// past its parent's end does not count.
		{Name: "view", Parent: 0, Start: ms(70), End: ms(90)},
		{Name: "view", Parent: 0, Start: ms(80), End: ms(110)},
		{Name: "orphan", Parent: -1, Start: ms(200), End: ms(205)},
	}
	want := []time.Duration{ms(100 - 10 - 40 - 30), ms(10), ms(30), ms(10), ms(20), ms(30), ms(5)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin(1, "x", -1)
	tr.end(i)
	tr.add(1, "y", i, time.Now(), time.Now())
	if i != -1 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded spans")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, "report", -1)
	child := tr.begin(7, "session.run", root)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].ID != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].dur() < spans[1].dur() || spans[1].dur() < 2*time.Millisecond {
		t.Fatalf("durations: root %v, child %v", spans[0].dur(), spans[1].dur())
	}
	stats := aggregate(spans)
	if len(stats) != 2 || stats[0].Self != spans[0].dur()-spans[1].dur() {
		t.Fatalf("aggregate = %+v", stats)
	}
}
