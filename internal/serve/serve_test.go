package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"micrograd/internal/evalcache"
	"micrograd/internal/experiments"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/stress"
)

// tinyStressRequest is a fast, deterministic perf-virus job: small core,
// short window, three epochs.
func tinyStressRequest(seed int64) JobRequest {
	return JobRequest{
		Kind:         "perf-virus",
		Quick:        true,
		Core:         "small",
		Instructions: 2000,
		Epochs:       3,
		Seed:         seed,
		Parallel:     1,
	}
}

// tinyStandaloneBudget mirrors tinyStressRequest for a direct experiments
// call with a private cache, capturing the streamed rows and cache stats.
func tinyStandaloneBudget(seed int64, rows *[]experiments.ProgressRow, group *evalcache.Group) experiments.Budget {
	b := experiments.QuickBudget()
	b.DynamicInstructions = 2000
	b.StressEpochs = 3
	b.CloneEpochs = 3
	b.Seed = seed
	b.Parallel = 1
	b.Memo = group
	b.OnProgress = func(row experiments.ProgressRow) { *rows = append(*rows, row) }
	return b
}

// waitTerminal blocks until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.After(4 * time.Minute)
	for {
		_, state, changed, ok := s.RowsSince(id, 0)
		if !ok {
			t.Fatalf("unknown job %s", id)
		}
		if state.Terminal() {
			st, _ := s.Status(id)
			return st
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("timeout waiting for job %s (state %s)", id, state)
		}
	}
}

// waitRunning blocks until the job leaves the queue.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.After(time.Minute)
	for {
		_, state, changed, ok := s.RowsSince(id, 0)
		if !ok {
			t.Fatalf("unknown job %s", id)
		}
		if state != StateQueued {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("timeout waiting for job %s to start", id)
		}
	}
}

func TestConcurrentJobsShareCacheAndMatchStandalone(t *testing.T) {
	// The reference: the same experiment through a private cache.
	var want []experiments.ProgressRow
	private := evalcache.NewGroup(evalcache.NewMap())
	_, err := experiments.RunStressKind(context.Background(), stress.PerfVirus, "small",
		tinyStandaloneBudget(7, &want, private))
	if err != nil {
		t.Fatal(err)
	}
	soloHits, soloMisses := private.Stats()
	if len(want) == 0 {
		t.Fatal("standalone run streamed no rows")
	}

	s := New(Config{Workers: 2, Parallel: 1})
	defer s.Close()
	stA, err := s.Submit(tinyStressRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	stB, err := s.Submit(tinyStressRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{stA.ID, stB.ID} {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
		res, _, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Series, want) {
			t.Fatalf("job %s rows differ from the standalone private-cache run:\n got %v\nwant %v",
				id, res.Series, want)
		}
		if res.Output == "" {
			t.Fatalf("job %s has empty output", id)
		}
	}

	// Cross-job sharing: both jobs propose the same candidates, so the
	// shared cache simulates each unique configuration exactly once (the
	// same miss count as ONE standalone run) and serves the rest as hits.
	hits, misses := s.group.Stats()
	if misses != soloMisses {
		t.Fatalf("shared cache misses = %d, want %d (one evaluation per unique key across both jobs)",
			misses, soloMisses)
	}
	if hits <= soloHits {
		t.Fatalf("shared cache hits = %d, want > %d (the second job must hit the first's results)",
			hits, soloHits)
	}
}

func TestCancelMidJobLeavesQueueDrainingAndCacheUsable(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 1})
	defer s.Close()

	// A long job (many epochs on a long window) that cannot finish before
	// the cancel lands, then a small job waiting behind it.
	slow := JobRequest{Kind: "power-virus", Core: "large", Instructions: 40000, Epochs: 200, Seed: 3, Parallel: 1}
	stSlow, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	stFast, err := s.Submit(tinyStressRequest(7))
	if err != nil {
		t.Fatal(err)
	}

	waitRunning(t, s, stSlow.ID)
	if _, ok := s.Cancel(stSlow.ID); !ok {
		t.Fatalf("cancel of %s failed", stSlow.ID)
	}
	if st := waitTerminal(t, s, stSlow.ID); st.State != StateCancelled {
		t.Fatalf("slow job finished %s, want cancelled", st.State)
	}

	// The queue keeps draining past the cancelled job...
	if st := waitTerminal(t, s, stFast.ID); st.State != StateDone {
		t.Fatalf("queued job finished %s: %s", st.State, st.Error)
	}
	// ...and the shared cache stays usable: an identical resubmission
	// completes warm, with hits and no new simulations.
	_, missesBefore := s.group.Stats()
	stWarm, err := s.Submit(tinyStressRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, stWarm.ID)
	if st.State != StateDone {
		t.Fatalf("warm job finished %s: %s", st.State, st.Error)
	}
	_, missesAfter := s.group.Stats()
	if missesAfter != missesBefore {
		t.Fatalf("warm resubmission simulated %d new configurations, want 0", missesAfter-missesBefore)
	}
	if st.CacheHits == 0 {
		t.Fatal("warm resubmission reported zero cache hits")
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 1})
	defer s.Close()
	slow := JobRequest{Kind: "power-virus", Core: "large", Instructions: 40000, Epochs: 200, Seed: 3, Parallel: 1}
	stSlow, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	stQueued, err := s.Submit(tinyStressRequest(9))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, stSlow.ID)
	if st, _ := s.Cancel(stQueued.ID); st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled", st.State)
	}
	s.Cancel(stSlow.ID)
	waitTerminal(t, s, stSlow.ID)
	if st, _ := s.Status(stQueued.ID); st.State != StateCancelled || !st.Started.IsZero() {
		t.Fatalf("cancelled queued job = %+v, want never started", st)
	}
}

func TestDiskBackedCacheSurvivesDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	newServer := func() *Server {
		cache, err := evalcache.NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{Cache: cache, Workers: 1, Parallel: 1})
	}

	cold := newServer()
	st, err := cold.Submit(tinyStressRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, cold, st.ID); st.State != StateDone {
		t.Fatalf("cold job finished %s: %s", st.State, st.Error)
	}
	if st.CacheMisses == 0 {
		t.Fatal("cold disk-backed run reported zero misses")
	}
	cold.Close()

	// A fresh daemon on the same directory must serve the identical job
	// entirely from disk: hits, no new simulations.
	warm := newServer()
	defer warm.Close()
	st, err = warm.Submit(tinyStressRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, warm, st.ID); st.State != StateDone {
		t.Fatalf("warm job finished %s: %s", st.State, st.Error)
	}
	if st.CacheMisses != 0 || st.CacheHits == 0 {
		t.Fatalf("warm restart run: %d hits / %d misses, want all hits", st.CacheHits, st.CacheMisses)
	}
}

// TestSubmitRejectsUnknownKind checks that a job naming an unknown kind,
// tuner, core, tunercmp challenger or cloning benchmark, or a stress job
// whose halving tuner has no budget to plan its rungs from, is refused with
// a 400 instead of being queued to fail, while empty names keep their
// defaults.
func TestSubmitRejectsUnknownKind(t *testing.T) {
	s := newServer(Config{})
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"kind":"no-such-virus"}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"kind":"perf-virus","tuner":"no-such-tuner"}`, http.StatusBadRequest},
		{`{"kind":"perf-virus","core":"tiny"}`, http.StatusBadRequest},
		{`{"kind":"tunercmp","tuners":["cmaes","no-such-tuner"]}`, http.StatusBadRequest},
		{`{"kind":"tunercmp","tuners":[""]}`, http.StatusBadRequest},
		{`{"kind":"cloning","benchmarks":["mcf","no-such-benchmark"]}`, http.StatusBadRequest},
		{`{"kind":"perf-virus","tuner":"halving-gd"}`, http.StatusBadRequest},
		{`{"kind":"perf-virus","tuner":"","core":""}`, http.StatusAccepted},
		{`{"kind":"power-virus","tuner":"halving-cmaes","core":"small","budget":40}`, http.StatusAccepted},
		{`{"kind":"tunercmp","tuners":["gd","halving-gd"]}`, http.StatusAccepted},
		{`{"kind":"cloning","benchmarks":["mcf","hmmer"]}`, http.StatusAccepted},
		{`{"kind":"perf-virus","tuner":"halving-gd","budget":40}`, http.StatusAccepted},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("POST /jobs %s answered %d, want %d: %s", tc.body, rec.Code, tc.want, rec.Body)
		}
	}
	if got := len(s.List()); got != 5 {
		t.Errorf("%d jobs queued, want the 5 valid ones", got)
	}
}

// TestSubmitRejectsNegativeOverrides checks that a negative budget or
// placement override is refused with a 400, not queued to run the default
// budget, while zero (the default) and a negative seed are accepted.
func TestSubmitRejectsNegativeOverrides(t *testing.T) {
	s := newServer(Config{})
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"kind":"perf-virus","instructions":-5}`, http.StatusBadRequest},
		{`{"kind":"perf-virus","epochs":-1}`, http.StatusBadRequest},
		{`{"kind":"perf-virus","budget":-3}`, http.StatusBadRequest},
		{`{"kind":"power-virus","power_cap_w":-1}`, http.StatusBadRequest},
		{`{"kind":"perf-virus","parallel":-2}`, http.StatusBadRequest},
		{`{"kind":"corun-noise-virus","cores":-4}`, http.StatusBadRequest},
		{`{"kind":"spatial","cores":4,"rows":-2,"cols":2}`, http.StatusBadRequest},
		{`{"kind":"spatial","cores":4,"rows":2,"cols":-2}`, http.StatusBadRequest},
		{`{"kind":"perf-virus","instructions":0,"epochs":0,"budget":0,"power_cap_w":0,"parallel":0,"cores":0,"rows":0,"cols":0}`, http.StatusAccepted},
		{`{"kind":"perf-virus","seed":-7}`, http.StatusAccepted},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("POST /jobs %s answered %d, want %d: %s", tc.body, rec.Code, tc.want, rec.Body)
		}
	}
	if got := len(s.List()); got != 2 {
		t.Errorf("%d jobs queued, want the 2 valid ones", got)
	}
}

func TestJobKindsExecuteEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 2})
	defer s.Close()
	reqs := []JobRequest{
		{Kind: "cloning", Quick: true, Core: "small", Instructions: 2000, Epochs: 2, Seed: 1, Parallel: 1, Benchmarks: []string{"mcf"}},
		{Kind: "tunercmp", Quick: true, Core: "small", Cores: 2, Rows: 1, Cols: 2, Instructions: 2000, Epochs: 2, Budget: 20, Seed: 1, Parallel: 1, Tuners: []string{"random"}},
		{Kind: "corun-noise-virus", Quick: true, Core: "small", Cores: 2, Instructions: 2000, Epochs: 2, Seed: 1, Parallel: 1},
		{Kind: "dvfs-noise-virus", Quick: true, Core: "small", FreqsGHz: []float64{2.0, 1.2}, Instructions: 2000, Epochs: 2, Seed: 1, Parallel: 1},
		{Kind: "spatial", Quick: true, Core: "small", Cores: 2, Instructions: 2000, Epochs: 2, Seed: 1, Parallel: 1},
		{Kind: "hotspot", Quick: true, Core: "small", Cores: 5, Instructions: 2000, Epochs: 1, Seed: 1, Parallel: 1},
	}
	// A spatial job without Rows/Cols runs on mgbench's default -grid.
	wantOutput := map[string]string{
		"spatial": "on a 1x2 PDN/thermal grid",
		"hotspot": "on a 2x3 PDN/thermal grid",
	}
	for _, req := range reqs {
		st, err := s.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		if st = waitTerminal(t, s, st.ID); st.State != StateDone {
			t.Fatalf("%s job finished %s: %s", req.Kind, st.State, st.Error)
		}
		res, _, err := s.Result(st.ID)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		if res.Output == "" || len(res.Series) == 0 {
			t.Fatalf("%s job: output %q with %d rows", req.Kind, res.Output, len(res.Series))
		}
		if want := wantOutput[req.Kind]; !strings.Contains(res.Output, want) {
			t.Errorf("%s job output lacks %q:\n%s", req.Kind, want, res.Output)
		}
	}
	stats := s.Stats()
	if stats.Done != len(reqs) || stats.CacheEntries == 0 || stats.Synthesizers == 0 {
		t.Fatalf("stats after the kind battery = %+v", stats)
	}
}

func TestCloseCancelsPendingJobsAndRejectsSubmits(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 1})
	slow := JobRequest{Kind: "power-virus", Core: "large", Instructions: 40000, Epochs: 200, Seed: 3, Parallel: 1}
	stSlow, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	stQueued, err := s.Submit(tinyStressRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, stSlow.ID)
	s.Close()
	if st, _ := s.Status(stSlow.ID); st.State != StateCancelled {
		t.Fatalf("running job after Close = %s, want cancelled", st.State)
	}
	if st, _ := s.Status(stQueued.ID); st.State != StateCancelled {
		t.Fatalf("queued job after Close = %s, want cancelled", st.State)
	}
	if _, err := s.Submit(tinyStressRequest(4)); err == nil {
		t.Fatal("submit after Close succeeded")
	}
	s.Close() // idempotent
}

func TestHTTPErrorPathsAndCancelEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v (status %v)", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/jobs", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed submit status = %d", code)
	}
	if code := post("/jobs", `{"kind":"no-such-virus"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown-kind submit status = %d", code)
	}
	if code := post("/jobs", `{"kind":"perf-virus"} {"kind":"perf-virus"}`); code != http.StatusBadRequest {
		t.Fatalf("submit with trailing data status = %d", code)
	}
	if code := post("/jobs/no-such-job/cancel", ""); code != http.StatusNotFound {
		t.Fatalf("cancel of unknown job status = %d", code)
	}
	if resp, err := http.Get(srv.URL + "/jobs/no-such-job/stream"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream of unknown job: %v (status %v)", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// A running job's result is a 409; cancelling it over HTTP settles it.
	body, _ := json.Marshal(JobRequest{Kind: "power-virus", Core: "large", Instructions: 40000, Epochs: 200, Seed: 3, Parallel: 1})
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitRunning(t, s, st.ID)
	if resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result"); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of a running job: %v (status %v)", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if code := post("/jobs/"+st.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel status = %d", code)
	}
	if got := waitTerminal(t, s, st.ID); got.State != StateCancelled {
		t.Fatalf("job after HTTP cancel = %s, want cancelled", got.State)
	}
}

// TestHTTPRejectsOversizedSubmit posts a job body past the 1 MiB bound: the
// daemon answers 400 and keeps serving — a small job still runs to the end.
func TestHTTPRejectsOversizedSubmit(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	huge := `{"kind":"` + strings.Repeat("a", 2*maxJobRequestBytes) + `"}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized submit status = %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}

	body, _ := json.Marshal(tinyStressRequest(6))
	resp, err = http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after an oversized body: status %d", resp.StatusCode)
	}
	if st = waitTerminal(t, s, st.ID); st.State != StateDone {
		t.Fatalf("job after an oversized body finished %s: %s", st.State, st.Error)
	}
}

// TestStatsReportDiskPutErrors checks that a disk-backed cache's failed
// writes surface in /stats as disk_put_errors.
func TestStatsReportDiskPutErrors(t *testing.T) {
	cache, err := evalcache.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cache: cache, Workers: 1, Parallel: 1})
	defer s.Close()
	cache.Put("nan", metrics.Vector{"x": math.NaN()}) // JSON cannot store NaN
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["disk_put_errors"] != float64(1) {
		t.Fatalf("/stats disk_put_errors = %v, want 1", stats["disk_put_errors"])
	}
}

// TestStatsCountPooledSynthKernels checks /stats synth_kernels: it counts
// the kernels the pooled synthesis memos hold, grows with a job's distinct
// kernels, and stays put when an identical job is served warm.
func TestStatsCountPooledSynthKernels(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	httpKernels := func() any {
		t.Helper()
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats["synth_kernels"]
	}
	if got := httpKernels(); got != float64(0) {
		t.Fatalf("/stats synth_kernels = %v before any job, want 0", got)
	}

	run := func() Stats {
		t.Helper()
		st, err := s.Submit(tinyStressRequest(7))
		if err != nil {
			t.Fatal(err)
		}
		if st = waitTerminal(t, s, st.ID); st.State != StateDone {
			t.Fatalf("job finished %s: %s", st.State, st.Error)
		}
		return s.Stats()
	}
	first := run()
	// A serial job stores one kernel per synthesis miss.
	if first.SynthKernels == 0 || uint64(first.SynthKernels) != first.SynthMisses {
		t.Fatalf("after one job synth_kernels = %d with %d synthesis misses, want equal and > 0",
			first.SynthKernels, first.SynthMisses)
	}
	if got := httpKernels(); got != float64(first.SynthKernels) {
		t.Fatalf("/stats synth_kernels = %v, want %d", got, first.SynthKernels)
	}
	if warm := run(); warm.SynthKernels != first.SynthKernels || warm.Synthesizers != 1 {
		t.Fatalf("warm resubmission: synth_kernels %d -> %d over %d synthesizers, want unchanged over 1",
			first.SynthKernels, warm.SynthKernels, warm.Synthesizers)
	}
}

func TestHTTPLifecycleAndNDJSONStream(t *testing.T) {
	s := New(Config{Workers: 1, Parallel: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(tinyStressRequest(5))
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Stream until the terminal line; every row must parse as a
	// ProgressRow, the last line as the terminal state.
	stream, err := http.Get(srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var rows int
	var end streamEnd
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"state"`)) {
			if err := json.Unmarshal(line, &end); err != nil {
				t.Fatalf("bad terminal line %q: %v", line, err)
			}
			continue
		}
		var row experiments.ProgressRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", line, err)
		}
		if row.Series == "" {
			t.Fatalf("row without series: %q", line)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if end.State != StateDone {
		t.Fatalf("stream ended in state %q (%s)", end.State, end.Error)
	}
	if rows == 0 || end.Rows != rows {
		t.Fatalf("streamed %d rows, terminal line says %d", rows, end.Rows)
	}

	// The result endpoint returns the same rows plus the rendered report.
	var res JobResult
	get := func(path string, into any) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	if code := get("/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status = %d", code)
	}
	if len(res.Series) != rows || !strings.Contains(res.Output, "perf-virus") {
		t.Fatalf("result: %d rows, output %q", len(res.Series), res.Output)
	}

	var stats Stats
	if code := get("/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Done != 1 || stats.CacheMisses == 0 {
		t.Fatalf("stats = %+v, want one done job with cache misses", stats)
	}
	if code := get("/jobs/no-such-job", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", code)
	}

	var listed []JobStatus
	if code := get("/jobs", &listed); code != http.StatusOK || len(listed) != 1 {
		t.Fatalf("list returned %d jobs (status %d)", len(listed), code)
	}
}

// TestSynthForPoolsByNormalizedOptions checks that options which normalize
// alike share one pooled synthesizer and that other options get their own.
func TestSynthForPoolsByNormalizedOptions(t *testing.T) {
	s := newServer(Config{})
	implicit := s.synthFor(microprobe.Options{Seed: 1})
	explicit := s.synthFor(microprobe.Options{Seed: 1}.Normalized())
	if implicit != explicit {
		t.Error("options that normalize alike must share one synthesizer")
	}
	if other := s.synthFor(microprobe.Options{Seed: 2}); other == implicit {
		t.Error("a different seed must get its own synthesizer")
	}
	if st := s.Stats(); st.Synthesizers != 2 {
		t.Errorf("Synthesizers = %d, want 2", st.Synthesizers)
	}
}
