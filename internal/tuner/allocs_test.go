package tuner

import (
	"context"
	"testing"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
)

// TestAllocsMemoizingEvaluatorHit pins a batch that the cache answers: it
// allocates the result slice, the key and the clone of the cached vector,
// and nothing per batch besides.
func TestAllocsMemoizingEvaluatorHit(t *testing.T) {
	stored := metrics.Vector{metrics.IPC: 1.5, metrics.DynamicPowerW: 2, metrics.L1DHitRate: 0.9, metrics.FracNop: 0.1}
	inner, _ := countingEval(func(knobs.Config) (metrics.Vector, error) { return stored.Clone(), nil })
	memo := NewSharedMemoizingEvaluator(inner, evalcache.NewGroup(nil), sharedKeyer)
	cfgs := []knobs.Config{knobs.SpatialStressSpace(4).MidConfig()}
	ctx := context.Background()
	if _, err := memo.EvaluateBatch(ctx, cfgs, 1); err != nil {
		t.Fatal(err)
	}
	want := testing.AllocsPerRun(100, func() { cloneSink = stored.Clone() }) + 2
	got := testing.AllocsPerRun(100, func() {
		if _, err := memo.EvaluateBatch(ctx, cfgs, 1); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("a cache-hit batch allocates %v times, want at most %v (result slice, key, vector clone)", got, want)
	}
}

// cloneSink keeps the measured clone on the heap, as a returned one is.
var cloneSink metrics.Vector
