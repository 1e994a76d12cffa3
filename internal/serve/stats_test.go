package serve

import (
	"testing"
)

// TestConcurrentJobsReportTheirOwnCacheStats runs two jobs with disjoint
// cache keys (different seeds) at the same time on one daemon. Each must
// report exactly the hits and misses it reports when it runs alone, and
// the two must add up to the shared group's totals: no job is credited with
// the other's lookups.
func TestConcurrentJobsReportTheirOwnCacheStats(t *testing.T) {
	seeds := []int64{11, 12}
	type counts struct{ hits, misses uint64 }
	solo := make([]counts, len(seeds))
	for i, seed := range seeds {
		s := New(Config{Workers: 1, Parallel: 1})
		st, err := s.Submit(tinyStressRequest(seed))
		if err != nil {
			t.Fatal(err)
		}
		st = waitTerminal(t, s, st.ID)
		s.Close()
		if st.State != StateDone {
			t.Fatalf("solo job seed %d finished %s: %s", seed, st.State, st.Error)
		}
		solo[i] = counts{st.CacheHits, st.CacheMisses}
		if st.CacheHits == 0 || st.CacheMisses == 0 {
			t.Fatalf("solo job seed %d: %d hits, %d misses; the test needs both", seed, st.CacheHits, st.CacheMisses)
		}
	}

	s := New(Config{Workers: 2, Parallel: 1})
	defer s.Close()
	ids := make([]string, len(seeds))
	for i, seed := range seeds {
		st, err := s.Submit(tinyStressRequest(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	var sum counts
	for i, id := range ids {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
		if got := (counts{st.CacheHits, st.CacheMisses}); got != solo[i] {
			t.Errorf("job %s (seed %d): %d hits, %d misses; alone it has %d, %d",
				id, seeds[i], got.hits, got.misses, solo[i].hits, solo[i].misses)
		}
		sum.hits += st.CacheHits
		sum.misses += st.CacheMisses
	}
	if hits, misses := s.group.Stats(); sum != (counts{hits, misses}) {
		t.Errorf("jobs sum to %d hits, %d misses; the shared group counted %d, %d",
			sum.hits, sum.misses, hits, misses)
	}
}
