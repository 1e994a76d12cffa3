package main

import (
	"math"
	"testing"
)

func TestSelfTimeWithOverlappingParallelChildren(t *testing.T) {
	// Two workers' evaluations overlap inside one epoch; a third child sticks
	// out past the parent's end and is clipped.
	children := [][2]int64{{10, 50}, {30, 70}, {90, 120}}
	if got := selfTime(0, 100, children); got != 100-60-10 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	// Nested and identical intervals count once.
	if got := selfTime(0, 100, [][2]int64{{20, 40}, {20, 40}, {25, 30}}); got != 80 {
		t.Errorf("selfTime with duplicates = %d, want 80", got)
	}
}

func TestAttributeSplitsOverlapAndSumsToWall(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "tuner.epoch", Start: 0, End: 80},
		{ID: 3, Parent: 2, Name: "platform.eval", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "platform.eval", Start: 30, End: 70},
		{ID: 5, Parent: 3, Name: "evalcache.get", Start: 40, End: 40}, // empty
	}
	fillSelf(spans)
	if spans[1].Self != 80-60 {
		t.Errorf("epoch self = %d, want 20", spans[1].Self)
	}
	got := attribute(spans)
	want := map[string]float64{"unattributed": 20, "tuner": 20, "platform": 60}
	sum := 0.0
	for l, ns := range got {
		sum += ns
		if math.Abs(ns-want[l]) > 1e-9 {
			t.Errorf("layer %s = %g, want %g", l, ns, want[l])
		}
	}
	if sum != 100 {
		t.Errorf("layers sum to %g, want the job's 100", sum)
	}
}

func TestFinishResolvesParentsAndClamps(t *testing.T) {
	tr := &tracer{}
	root := tr.add("j", "job", 0, 0, 100)
	e1 := tr.add("j", "tuner.epoch", root, 0, 40)
	tr.add("j", "platform.eval", -1, 5, 30)
	tr.add("j", "evalcache.get", -1, 45, 46) // between epochs: the job's
	e2 := tr.add("j", "tuner.epoch", root, 50, 90)
	tr.add("j", "platform.eval", -1, 60, 95) // overruns its epoch
	spans := tr.finish()["j"]
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for id, parent := range map[int]int{3: e1, 4: root, 6: e2} {
		if byID[id].Parent != parent {
			t.Errorf("span %d parent = %d, want %d", id, byID[id].Parent, parent)
		}
	}
	if byID[6].End != 90 {
		t.Errorf("overrunning span not clamped to its epoch: ends %d", byID[6].End)
	}
	if byID[root].Self != 100-40-1-40 {
		t.Errorf("job self = %d, want 19", byID[root].Self)
	}
	sum := 0.0
	for _, ns := range attribute(spans) {
		sum += ns
	}
	if sum != 100 {
		t.Errorf("layers sum to %g, want 100", sum)
	}
}
