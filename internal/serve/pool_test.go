package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"micrograd/internal/evalcache"
	"micrograd/internal/experiments"
)

// runJobs submits the requests, waits for each and returns their results.
func runJobs(t *testing.T, s *Server, reqs ...JobRequest) []JobResult {
	t.Helper()
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	out := make([]JobResult, len(ids))
	for i, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s (%s) finished %s: %s", id, reqs[i].Kind, st.State, st.Error)
		}
		res, _, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// TestSequentialJobsShareOnePlatform: with one worker and a serial fan-out,
// every job on one core runs on the same pooled platform, tuning and
// characterization alike, so N jobs build one platform, not one per job.
func TestSequentialJobsShareOnePlatform(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for seed := int64(1); seed <= 3; seed++ {
		runJobs(t, s, tinyStressRequest(seed))
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats map[string]any
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := stats["platforms_built"]; got != float64(1) {
			t.Fatalf("after %d sequential jobs /stats platforms_built = %v, want 1", seed, got)
		}
	}
}

// TestWarmPlatformPoolJobMatchesSerial: a job served on platforms that
// jobs of other kinds and cores ran on first, fanned out over two workers,
// equals the same request run standalone, serially, on fresh platforms and
// a private cache, bit for bit.
func TestWarmPlatformPoolJobMatchesSerial(t *testing.T) {
	req := tinyStressRequest(11)
	req.Kind, req.Parallel = "thermal-virus", 2

	var want []experiments.ProgressRow
	b := req.RunBudget()
	b.Parallel = 1
	b.Memo = evalcache.NewGroup(evalcache.NewMap())
	b.OnProgress = func(row experiments.ProgressRow) { want = append(want, row) }
	solo, err := experiments.RunKind(context.Background(), req, b)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, Parallel: 2})
	defer s.Close()
	warm := []JobRequest{tinyStressRequest(3), tinyStressRequest(4), tinyStressRequest(5)}
	warm[0].Kind = "power-virus"
	warm[1].Kind, warm[1].Core = "voltage-noise-virus", "large"
	warm[2].Kind, warm[2].Benchmarks, warm[2].Epochs = "cloning", []string{"mcf"}, 2
	for i := range warm {
		warm[i].Parallel = 2
	}
	runJobs(t, s, warm...)
	before := s.Stats().PlatformsBuilt
	got := runJobs(t, s, req)[0]
	if after := s.Stats().PlatformsBuilt; after != before {
		t.Fatalf("the job built %d platforms on a warm pool, want 0", after-before)
	}
	if got.Output != solo.Output {
		t.Fatalf("served output differs from the standalone run:\n got %s\nwant %s", got.Output, solo.Output)
	}
	if !reflect.DeepEqual(got.Series, want) {
		t.Fatalf("served rows differ from the standalone run:\n got %v\nwant %v", got.Series, want)
	}
}

// TestWorkersSharePlatformPool runs jobs on two cores over two workers at
// once (under -race in CI): each core's pool never holds more platforms
// than were in use at the same time.
func TestWorkersSharePlatformPool(t *testing.T) {
	s := New(Config{Workers: 2, Parallel: 1})
	defer s.Close()
	var reqs []JobRequest
	for seed := int64(1); seed <= 3; seed++ {
		for _, core := range []string{"small", "large"} {
			req := tinyStressRequest(seed)
			req.Core = core
			reqs = append(reqs, req)
		}
	}
	runJobs(t, s, reqs...)
	// Two serial jobs at a time: at most two platforms per core.
	if got := s.Stats().PlatformsBuilt; got < 2 || got > 4 {
		t.Fatalf("platforms_built = %d after %d jobs on two cores over two workers, want 2..4", got, len(reqs))
	}
}
