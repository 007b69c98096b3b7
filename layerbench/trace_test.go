package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100 * ms},
		// Two children overlapping on [20, 30) and a third disjoint one:
		// together they cover [10, 40) and [60, 70), 40ms of the parent.
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 40 * ms},
		{ID: 3, Parent: 0, Name: "c", Start: 60 * ms, End: 70 * ms},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 3, Name: "d", Start: 65 * ms, End: 80 * ms},
		// A side child replays 4ms of b's work after the request.
		{ID: 5, Parent: 2, Name: "replay", Side: true, Start: 120 * ms, End: 124 * ms},
		// A parentless side span belongs to no one.
		{ID: 6, Parent: -1, Name: "engine.solve", Side: true, Start: 130 * ms, End: 140 * ms},
	}
	want := []time.Duration{60 * ms, 20 * ms, 16 * ms, 5 * ms, 15 * ms, 4 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "core", Start: 0, End: 5},
		{ID: 1, Parent: 0, Name: "replay", Side: true, Start: 10, End: 20},
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("self = %v, want 0", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin(1, -1, "request", false)
	child := r.begin(1, root, "atpg", false)
	r.end(child, map[string]int64{"patterns": 3})
	r.end(root, nil)
	if r.spans[child].Parent != root || r.spans[child].Counts["patterns"] != 3 {
		t.Fatalf("child span = %+v", r.spans[child])
	}
	if r.spans[root].Start > r.spans[child].Start || r.spans[root].End < r.spans[child].End {
		t.Errorf("root %+v does not enclose child %+v", r.spans[root], r.spans[child])
	}
}
