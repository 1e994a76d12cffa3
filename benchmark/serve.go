package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"micrograd/internal/evalcache"
	"micrograd/internal/experiments"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/serve"
	"micrograd/internal/stress"
	"micrograd/internal/tuner"
)

// serve-mixed is a closed loop: two clients each submit a job, stream it to
// its terminal line, fetch the result, and only then submit the next. The
// distinct jobs are stress kinds × {gd, cmaes, halving-gd} × {small, large}
// × a two-seed pool; the small pool bounds mgserve's per-seed synthesis
// memos, which never shrink. The seed picks a hot set — one job per tuner
// and core — and the clients walk one shared schedule that repeats the
// pattern hot, cold, hot, cold, cold: a hot job recurs before the shared LRU
// has evicted its entries, so it is served from the cache (40% of jobs),
// while a cold job recurs only after eviction, so it simulates and writes
// again (60%). A fixed, balanced pattern keeps the mix, the hit ratio and
// hence the throughput alike from seed to seed.

var (
	serveTuners = []string{"gd", "cmaes", "halving-gd"}
	serveCores  = []string{"small", "large"}
)

const (
	serveClients = 2
	serveWorkers = 2
	serveBudget  = 60
	// serveMemoCap bounds the shared cache well below the about 1,850
	// distinct evaluation keys of the 48 distinct jobs (a traced run reports
	// the count), but above the keys the jobs between two runs of one hot
	// job touch.
	serveMemoCap = 1000
)

// schedule is the seed's split of the distinct jobs into the hot set and
// the cold rest, each in the order the schedule walks it.
type schedule struct{ hot, cold []int }

// newSchedule draws one hot job per tuner and core, and orders both sets.
func newSchedule(seed int64, reqs []serve.JobRequest) schedule {
	rng := rand.New(rand.NewSource(seed))
	var s schedule
	groups := map[string][]int{}
	var order []string
	for i, r := range reqs {
		g := r.Tuner + "/" + r.Core
		if groups[g] == nil {
			order = append(order, g)
		}
		groups[g] = append(groups[g], i)
	}
	hot := map[int]bool{}
	for _, g := range order {
		members := groups[g]
		if len(members) > 1 {
			hot[members[rng.Intn(len(members))]] = true
		}
	}
	for _, i := range rng.Perm(len(reqs)) {
		if hot[i] {
			s.hot = append(s.hot, i)
		} else {
			s.cold = append(s.cold, i)
		}
	}
	return s
}

// coldSlot numbers the cold slots of the pattern hot, cold, hot, cold, cold.
var coldSlot = [5]int{1: 0, 3: 1, 4: 2}

// at returns the index of the k-th scheduled job: every five jobs are hot,
// cold, hot, cold, cold, and each set is walked round-robin.
func (s schedule) at(k int) int {
	cycle, slot := k/5, k%5
	if slot == 0 || slot == 2 {
		return s.hot[(2*cycle+slot/2)%len(s.hot)]
	}
	return s.cold[(3*cycle+coldSlot[slot])%len(s.cold)]
}

type serveSession struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	reqs   []serve.JobRequest
	sched  schedule
	rec    *recorder

	mu       sync.Mutex
	replicas map[string]replicaResult
}

// replicaResult is a served request re-run standalone.
type replicaResult struct {
	digest string
	err    error
}

func setupServeMixed(seed int64, smoke bool, rec *recorder) (session, error) {
	s := &serveSession{rec: rec, replicas: make(map[string]replicaResult)}
	pool := []int64{2*seed + 1, 2*seed + 2}
	for _, kind := range stress.Kinds() {
		for _, tn := range serveTuners {
			for _, core := range serveCores {
				for _, js := range pool {
					req := serve.JobRequest{Kind: string(kind), Quick: true, Seed: js, Budget: serveBudget, Parallel: 1, Tuner: tn, Core: core}
					if smoke {
						req.Instructions, req.Epochs, req.Budget = 2000, 2, 16
					}
					s.reqs = append(s.reqs, req)
				}
			}
		}
	}
	if smoke {
		s.reqs = s.reqs[:6]
	}
	s.sched = newSchedule(seed, s.reqs)
	lru, err := evalcache.NewLRU(serveMemoCap)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.setKeying(serveCacheJob, jobKeying{newCache: func() evalcache.Cache {
			c, _ := evalcache.NewLRU(serveMemoCap)
			return c
		}})
	}
	s.srv = serve.New(serve.Config{Cache: wrapCache(rec, serveCacheJob, lru), Workers: serveWorkers, Parallel: 1, Now: time.Now})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	if _, err := s.submit(context.Background(), serveWarmup); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return s, nil
}

// serveWarmup is the tiny job set-up runs through the daemon before the
// timed window. Its seed lies outside the schedule's pool for every
// non-negative workload seed, so it shares no synthesized kernel or cached
// evaluation with the timed jobs.
var serveWarmup = serve.JobRequest{Kind: string(stress.PerfVirus), Quick: true, Epochs: 3, Budget: 24,
	Seed: warmupSeed, Parallel: 1, Tuner: "gd", Core: "small"}

// serveCacheJob is the trace job the shared cache's operations belong to:
// they cannot be credited to one served job.
const serveCacheJob = "serve-cache"

func (s *serveSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // streams end once their jobs are terminal
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

func requestKey(r serve.JobRequest) string {
	return fmt.Sprintf("%s/%s/%s/seed=%d", r.Kind, r.Tuner, r.Core, r.Seed)
}

// servedJob is one job as a client saw it.
type servedJob struct {
	out                    jobOutcome
	jobID                  string
	submitted, accepted    time.Time
	finishedAt             time.Time
	created, started, done time.Time
}

func (s *serveSession) run(ctx context.Context, w window) (windowResult, error) {
	st0 := s.srv.Stats()
	ops0 := 0
	if s.rec != nil {
		ops0 = s.rec.opCount()
	}
	start := time.Now()
	perClient := make([][]servedJob, serveClients)
	errs := make([]error, serveClients)
	var next atomic.Int64 // the next schedule position a client takes
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				var req serve.JobRequest
				if w.all {
					if k := c + i*serveClients; k < len(s.reqs) {
						req = s.reqs[k]
					} else {
						return
					}
				} else {
					if i > 0 && !time.Now().Before(w.deadline) {
						return
					}
					req = s.reqs[s.sched.at(int(next.Add(1)-1))]
				}
				job, err := s.submit(ctx, req)
				if err != nil {
					errs[c] = err
					return
				}
				perClient[c] = append(perClient[c], job)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return windowResult{}, err
	}
	st1 := s.srv.Stats()
	var jobs []servedJob
	for _, cj := range perClient {
		jobs = append(jobs, cj...)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].submitted.Before(jobs[b].submitted) })

	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	// The traced breakdown runs on the standalone replicas, one worker each.
	res := windowResult{candidates: hits + misses, workers: 1, layer: map[string]float64{}}
	var submitMS, queueMS, runMS []float64
	busy := 0.0
	for i := range jobs {
		j := &jobs[i]
		st, ok := s.srv.Status(j.jobID)
		if !ok {
			return windowResult{}, fmt.Errorf("served job %s vanished", j.jobID)
		}
		j.created, j.started, j.done = st.Created, st.Started, st.Finished
		submitMS = append(submitMS, float64(j.accepted.Sub(j.submitted))/1e6)
		queueMS = append(queueMS, float64(j.started.Sub(j.created))/1e6)
		runMS = append(runMS, float64(j.done.Sub(j.started))/1e6)
		busy += float64(j.done.Sub(j.started))
		if s.rec != nil {
			s.traceJob(j)
		}
		res.jobs = append(res.jobs, j.out)
	}
	if hits+misses > 0 {
		res.layer["evalcache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if h, m := st1.SynthHits-st0.SynthHits, st1.SynthMisses-st0.SynthMisses; h+m > 0 {
		res.layer["microprobe.synth_hit_ratio"] = float64(h) / float64(h+m)
	}
	res.layer["serve.submit_ms_p50"] = median(submitMS)
	res.layer["serve.queue_wait_ms_p50"] = median(queueMS)
	res.layer["serve.run_ms_p50"] = median(runMS)
	res.layer["sched.worker_busy_frac"] = busy / (float64(elapsed) * serveWorkers)
	if s.rec != nil {
		puts, keys := s.rec.stores(serveCacheJob, ops0)
		res.notes = append(res.notes, fmt.Sprintf("the shared cache stored %d evaluations under %d distinct keys: %d were stored again after eviction",
			puts, keys, puts-keys))
	}
	return res, nil
}

// traceJob records a served job's spans: the client's view (submission to
// terminal stream line) and the server's (queued, running) from the job's
// timestamps, which the server takes from the same clock.
func (s *serveSession) traceJob(j *servedJob) {
	tr := s.rec.tr
	id := "serve/" + j.jobID
	root := tr.add(id, "job", 0, tr.at(j.submitted), tr.at(j.finishedAt))
	tr.add(id, "serve.submit", root, tr.at(j.submitted), tr.at(j.accepted))
	tr.add(id, "serve.queue_wait", root, tr.at(j.created), tr.at(j.started))
	tr.add(id, "serve.run", root, tr.at(j.started), tr.at(j.done))
}

// streamLine is either a progression row or the stream's terminal line.
type streamLine struct {
	experiments.ProgressRow
	State serve.State `json:"state"`
	Error string      `json:"error"`
}

// submit runs one job through the HTTP API: POST it, stream it to its
// terminal line (the job's latency ends there), then fetch its result.
func (s *serveSession) submit(ctx context.Context, req serve.JobRequest) (servedJob, error) {
	job := servedJob{submitted: time.Now()}
	body, err := json.Marshal(req)
	if err != nil {
		return job, err
	}
	var st serve.JobStatus
	if err := s.call(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted, &st); err != nil {
		return job, fmt.Errorf("submitting %s: %w", requestKey(req), err)
	}
	job.accepted, job.jobID = time.Now(), st.ID
	rows, end, err := s.stream(ctx, st.ID)
	if err != nil {
		return job, err
	}
	job.finishedAt = time.Now()
	var res serve.JobResult
	if err := s.call(ctx, http.MethodGet, "/jobs/"+st.ID+"/result", nil, http.StatusOK, &res); err != nil {
		return job, fmt.Errorf("fetching result of %s: %w", st.ID, err)
	}
	job.out = jobOutcome{key: requestKey(req), id: st.ID, wall: job.finishedAt.Sub(job.submitted), cloneErr: math.NaN()}
	switch {
	case end.State != serve.StateDone || res.State != serve.StateDone:
		job.out.err = fmt.Errorf("job %s ended %s: %s", st.ID, end.State, end.Error)
	case len(rows) != len(res.Series):
		job.out.err = fmt.Errorf("job %s streamed %d rows but its result holds %d", st.ID, len(rows), len(res.Series))
	default:
		job.out.digest = serveDigest(res.Output, res.Series)
		job.out.verify = func() error { return s.verifyAgainstReplica(ctx, req, job.out.digest) }
	}
	return job, nil
}

// stream reads a job's NDJSON progression until its terminal line.
func (s *serveSession) stream(ctx context.Context, id string) ([]experiments.ProgressRow, streamLine, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, streamLine{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, streamLine{}, fmt.Errorf("streaming %s: %w", id, err)
	}
	defer resp.Body.Close()
	var rows []experiments.ProgressRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, streamLine{}, fmt.Errorf("decoding stream of %s: %w", id, err)
		}
		if line.State != "" {
			return rows, line, nil
		}
		rows = append(rows, line.ProgressRow)
	}
	if err := sc.Err(); err != nil {
		return nil, streamLine{}, fmt.Errorf("streaming %s: %w", id, err)
	}
	return nil, streamLine{}, fmt.Errorf("stream of %s ended without a terminal line", id)
}

// call performs one JSON request and decodes the response into out.
func (s *serveSession) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// requestBudget is the experiment budget mgserve derives from a request.
func requestBudget(req serve.JobRequest) experiments.Budget {
	b := experiments.QuickBudget()
	if req.Instructions > 0 {
		b.DynamicInstructions = req.Instructions
	}
	if req.Epochs > 0 {
		b.StressEpochs = req.Epochs
	}
	b.Seed, b.MaxEvaluations, b.Tuner, b.Parallel = req.Seed, req.Budget, req.Tuner, 1
	return b
}

// verifyAgainstReplica checks a served job against the same request run
// standalone on a private cache: mgserve's shared cache must not change a
// result.
func (s *serveSession) verifyAgainstReplica(ctx context.Context, req serve.JobRequest, digest string) error {
	r := s.replica(ctx, req, nil)
	if r.err != nil {
		return r.err
	}
	if r.digest != digest {
		return fmt.Errorf("served result differs from the same request run standalone")
	}
	return nil
}

// replicate re-runs every distinct served request standalone, traced, so
// the replay can break the work mgserve's workers did down by layer.
func (s *serveSession) replicate(ctx context.Context, jobs []jobOutcome) {
	served := make(map[string]bool)
	for _, j := range jobs {
		served[j.key] = served[j.key] || j.err == nil
	}
	for _, req := range s.reqs {
		if key := requestKey(req); served[key] {
			jc := startJob(s.rec, "replica/"+key)
			s.replica(ctx, req, jc)
			jc.end()
		}
	}
}

// replica runs a request the way mgserve runs it (experiments.RunStressKind
// under the request's budget) but standalone, on a private cache, through
// tracing wrappers when jc is set. Results are memoized per request.
func (s *serveSession) replica(ctx context.Context, req serve.JobRequest, jc *jobContext) replicaResult {
	key := requestKey(req)
	s.mu.Lock()
	r, ok := s.replicas[key]
	s.mu.Unlock()
	if ok {
		return r
	}
	if jc == nil {
		jc = &jobContext{id: "replica/" + key}
	}
	r.digest, r.err = runReplica(ctx, req, jc)
	s.mu.Lock()
	s.replicas[key] = r
	s.mu.Unlock()
	return r
}

func runReplica(ctx context.Context, req serve.JobRequest, jc *jobContext) (string, error) {
	b := requestBudget(req)
	kind, err := stress.KindByName(req.Kind)
	if err != nil {
		return "", err
	}
	core, err := platform.ByName(req.Core)
	if err != nil {
		return "", err
	}
	newPlatform := func() (platform.Platform, error) { return platform.NewSimPlatform(core) }
	raw, err := newPlatform()
	if err != nil {
		return "", err
	}
	tn, err := tuner.ByName(b.Tuner)
	if err != nil {
		return "", err
	}
	synth := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: b.LoopSize, Seed: b.Seed})
	// stress.Run turns power collection on for every single-core kind but
	// the performance virus; the keys are built from the options after that.
	evalOpts := platform.EvalOptions{DynamicInstructions: b.DynamicInstructions, Seed: b.Seed, CollectPower: kind != stress.PerfVirus}
	memo := jobMemo(jc, raw, synth.Options(), evalOpts)
	var rows []experiments.ProgressRow
	rep, err := stress.Run(ctx, kind, stress.Options{
		Tuner: tn, Platform: wrapPlatform(jc.rec, jc.id, raw),
		EvalOptions: evalOpts, LoopSize: b.LoopSize, Seed: b.Seed,
		MaxEpochs: b.StressEpochs, MaxEvaluations: b.MaxEvaluations, Parallel: b.Parallel,
		NewPlatform: func() (platform.Platform, error) { return wrapNew(jc, newPlatform) },
		Memo:        memo, Synth: synth,
		OnEpoch: func(p stress.EpochPoint) {
			rows = append(rows, experiments.ProgressRow{Series: string(kind), X: float64(p.Epoch), Y: p.BestValue})
			if jc.rec != nil {
				jc.epoch()
			}
		},
	})
	if err != nil {
		return "", fmt.Errorf("replica of %s: %w", requestKey(req), err)
	}
	measure, err := platform.NewSimPlatform(core)
	if err != nil {
		return "", err
	}
	resp, err := measure.EvaluateRequest(platform.EvalRequest{
		Programs: []*program.Program{rep.Program},
		Options:  platform.EvalOptions{DynamicInstructions: b.DynamicInstructions, Seed: b.Seed},
		Detail:   platform.DetailTrace,
	})
	if err != nil {
		return "", fmt.Errorf("characterizing replica of %s: %w", requestKey(req), err)
	}
	run := experiments.StressKindRun{Kind: kind, Core: core.Kind, Report: rep, Full: resp.Metrics, Trace: resp.Trace}
	return serveDigest(run.Render(), rows), nil
}
