package main

import (
	"testing"

	"micrograd/internal/serve"
)

// TestScheduleMix pins the serve-mixed traffic shape: one hot job per tuner
// and core, two hot jobs in every five, the hot set walked round-robin (so
// each hot job recurs within a few jobs) and the cold rest walked
// round-robin (so each cold job recurs only after every other cold job ran).
func TestScheduleMix(t *testing.T) {
	var reqs []serve.JobRequest
	for _, tn := range serveTuners {
		for _, core := range serveCores {
			for i := 0; i < 8; i++ {
				reqs = append(reqs, serve.JobRequest{Tuner: tn, Core: core, Seed: int64(i)})
			}
		}
	}
	s := newSchedule(7, reqs)
	groups := map[string]int{}
	isHot := map[int]bool{}
	for _, i := range s.hot {
		isHot[i] = true
		groups[reqs[i].Tuner+"/"+reqs[i].Core]++
	}
	if len(groups) != len(serveTuners)*len(serveCores) || len(s.hot) != len(groups) || len(s.hot)+len(s.cold) != len(reqs) {
		t.Fatalf("hot %d over %d tuner/core groups, cold %d", len(s.hot), len(groups), len(s.cold))
	}
	hot, lastSeen, maxHotGap := 0, map[int]int{}, 0
	coldSeen := map[int]int{}
	jobs := 5 * len(s.cold) * 10
	for k := 0; k < jobs; k++ {
		i := s.at(k)
		if isHot[i] {
			hot++
			if prev, ok := lastSeen[i]; ok {
				maxHotGap = max(maxHotGap, k-prev)
			}
			lastSeen[i] = k
			continue
		}
		coldSeen[i]++
	}
	if hot*5 != jobs*2 {
		t.Errorf("%d hot jobs of %d, want two in five", hot, jobs)
	}
	if want := 5 * len(s.hot) / 2; maxHotGap != want {
		t.Errorf("a hot job recurs after up to %d jobs, want %d", maxHotGap, want)
	}
	for i, c := range coldSeen {
		if want := jobs * 3 / 5 / len(s.cold); c != want {
			t.Errorf("cold job %d ran %d times, want %d", i, c, want)
		}
	}
	if other := newSchedule(8, reqs); other.at(0) == s.at(0) && other.at(1) == s.at(1) && other.at(3) == s.at(3) {
		t.Error("another seed produced the same schedule")
	}
}
