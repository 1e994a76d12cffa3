package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobRequest posts arbitrary bodies to POST /jobs on a daemon whose
// workers never start, so an accepted job stays queued. The handler must
// never panic; a body json.Unmarshal rejects, or one validateRequest rejects
// (no known kind, a negative override), must get a 4xx and leave the queue
// empty; any other body must be queued as exactly one job of its kind.
// Wired into `make fuzz`.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		`{"kind":"perf-virus","quick":true,"core":"small","instructions":2000,"epochs":3,"seed":7,"parallel":1}`,
		`{"kind":"cloning","benchmarks":["mcf"]}`,
		`{"kind":"tunercmp","tuners":["gd","cmaes"],"cores":4,"rows":2,"cols":2}`,
		`{"kind":"dvfs-noise-virus","freqs_ghz":[2.0,1.2]}`,
		`{"kind":"no-such-virus"}`,
		`{"kind":"perf-virus","tuner":"no-such-tuner"}`,
		`{"kind":"perf-virus","core":"tiny"}`,
		`{"kind":"tunercmp","tuners":["cmaes",""]}`,
		`{"kind":"cloning","benchmarks":["no-such-benchmark"]}`,
		`{"kind":"perf-virus","tuner":"halving-gd"}`,
		`{"kind":"perf-virus","instructions":-5}`,
		`{"kind":"spatial","cores":4,"rows":-2,"cols":2}`,
		`{"kind":"perf-virus"} {"kind":"perf-virus"}`,
		`{"kind":"perf-virus"}]`,
		`{"kind":"perf-virus","seed":1e400}`,
		`{"kind":7}`,
		`{not json`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newServer(Config{})
		defer s.Close()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))

		var req JobRequest
		valid := json.Unmarshal(body, &req) == nil && validateRequest(req) == nil
		jobs := s.List()
		if !valid {
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("rejected body %q answered %d, want 4xx", body, rec.Code)
			}
			if len(jobs) != 0 || len(s.queue) != 0 {
				t.Fatalf("rejected body %q left %d jobs (%d queued)", body, len(jobs), len(s.queue))
			}
			return
		}
		if rec.Code != http.StatusAccepted {
			t.Fatalf("valid body %q answered %d: %s", body, rec.Code, rec.Body)
		}
		if len(jobs) != 1 || len(s.queue) != 1 || jobs[0].State != StateQueued || jobs[0].Kind != req.Kind {
			t.Fatalf("valid body %q: jobs %+v, %d queued; want one queued %q job", body, jobs, len(s.queue), req.Kind)
		}
	})
}
