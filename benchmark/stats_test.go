package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins the interpolation to Python's
// statistics.quantiles(xs, n=4), the definition the spread bounds use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %g", got)
	}
}

// TestTimeJobsTakesEachJobsFastestRun pins the two window timings: repeats
// of identical jobs count once each, with their fastest run and its
// allocations; other windows count every job over the elapsed time.
func TestTimeJobsTakesEachJobsFastestRun(t *testing.T) {
	jobs := []jobOutcome{
		{key: "a", wall: 3 * time.Second, candidates: 10, allocs: 100},
		{key: "b", wall: 2 * time.Second, candidates: 30, allocs: 300},
		{key: "a", wall: 1 * time.Second, candidates: 10, allocs: 101},
		{key: "b", wall: 4 * time.Second, candidates: 30, allocs: 302},
	}
	got := timeJobs(windowResult{jobs: jobs, candidates: 80, repeatable: true}, 10*time.Second, 900)
	if got.candidates != 40 || got.seconds != 3 || got.allocs != 401 || !slices.Equal(got.wall, []float64{1, 2}) {
		t.Errorf("repeatable window: %+v, want 40 candidates in 3 s with 401 allocations, walls [1 2]", got)
	}
	got = timeJobs(windowResult{jobs: jobs, candidates: 80}, 10*time.Second, 900)
	if got.candidates != 80 || got.seconds != 10 || got.allocs != 900 || len(got.wall) != 4 {
		t.Errorf("window: %+v, want 80 candidates in 10 s with 900 allocations and 4 walls", got)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the function must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{19, 0, 0, false},
		{20, 50, 10, true},
		{100, 90, 90, true},
		{199, 90, 180, true},
		{200, 95, 190, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		pct, val, ok := tailPercentile(seq(tc.n))
		if pct != tc.pct || val != tc.val || ok != tc.ok {
			t.Errorf("tailPercentile(1..%d) = p%g %g %t, want p%g %g %t", tc.n, pct, val, ok, tc.pct, tc.val, tc.ok)
		}
	}
}
