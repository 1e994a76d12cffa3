// Package serve implements the mgserve tuning daemon: a job queue behind an
// HTTP/JSON API that runs the repository's stress, cloning and
// tuner-comparison experiments, streams each run's tuning progression as
// NDJSON, and — the point of the exercise — routes every job's evaluations
// through ONE shared, content-addressed evaluation cache and one shared
// kernel-synthesis memo. Jobs with overlapping candidate sets hit each
// other's results, whether they run concurrently or hours apart, and a
// disk-backed cache keeps the warmth across daemon restarts. The daemon
// also shares its built simulation platforms: a single-core job takes its
// platforms from one daemon-wide pool and returns them when it ends, so
// later jobs on the same core run on them instead of building their own.
//
// The package deliberately observes no wall clock of its own (timestamps
// come from an injected clock) and draws no randomness (job IDs are a
// counter), so everything except the HTTP transport is a pure function of
// its inputs — the same discipline mglint enforces on the simulation
// packages.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"micrograd/internal/evalcache"
	"micrograd/internal/experiments"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// queueCapacity bounds the number of jobs waiting to run; submissions
// beyond it are rejected rather than buffered without bound.
const queueCapacity = 1024

// JobRequest is the POST /jobs body: experiments.Request, the run the
// mgbench flags describe, under the name the benchmark module uses.
type JobRequest = experiments.Request

// JobStatus is a job's externally visible state.
type JobStatus struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    State     `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Error    string    `json:"error,omitempty"`
	// Rows is the number of progression rows streamed so far.
	Rows int `json:"rows"`
	// CacheHits and CacheMisses count the job's own lookups in the shared
	// cache: a hit may be a result another job stored, but another job's
	// lookups never count here.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// JobResult is a finished job's outcome: its status, the rendered report
// text, and the full progression row set.
type JobResult struct {
	JobStatus
	Output string                    `json:"output"`
	Series []experiments.ProgressRow `json:"series"`
}

// Stats is the daemon-wide view of the shared caches and the queue.
type Stats struct {
	// CacheHits/CacheMisses/CacheEntries describe the shared eval cache.
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// DiskPutErrors counts results a disk-backed cache failed to persist
	// (zero for in-memory caches).
	DiskPutErrors uint64 `json:"disk_put_errors"`
	// SynthHits/SynthMisses/Synthesizers describe the synthesis memo pool,
	// and SynthKernels is the number of kernels its memos hold.
	SynthHits    uint64 `json:"synth_hits"`
	SynthMisses  uint64 `json:"synth_misses"`
	Synthesizers int    `json:"synthesizers"`
	SynthKernels int    `json:"synth_kernels"`
	// PlatformsBuilt is the number of simulation platforms the shared
	// platform pool has built: at most the peak number in use at once per
	// core spec, however many jobs ran.
	PlatformsBuilt uint64 `json:"platforms_built"`
	// Per-state job counts.
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Config configures a Server.
type Config struct {
	// Cache backs the shared evaluation cache: nil means an unbounded map;
	// an LRU bounds memory; a DiskCache persists across daemon restarts.
	Cache evalcache.Cache
	// Workers is the number of jobs run concurrently (min 1).
	Workers int
	// Parallel caps each job's evaluation fan-out (min 1).
	Parallel int
	// Now supplies job timestamps. Nil leaves timestamps zero, which keeps
	// the package free of wall-clock reads; cmd/mgserve injects time.Now.
	Now func() time.Time
}

// job is the internal job record. All mutable fields are guarded by the
// server mutex; changed is closed (and replaced) on every mutation so
// streamers can wait without polling.
type job struct {
	id  string
	req JobRequest

	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	err      error
	cancel   context.CancelFunc
	ctx      context.Context

	output  string
	rows    []experiments.ProgressRow
	changed chan struct{}

	// memo is the job's view of the shared cache group, attached when the
	// job starts; its counters see only this job's lookups.
	memo *evalcache.Group
}

// Server owns the shared caches, the platform pool, the job table and the
// worker pool.
type Server struct {
	cfg       Config
	group     *evalcache.Group
	platforms platform.Pool
	now       func() time.Time

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string
	nextID    int
	synths    map[microprobe.Options]*microprobe.CachingSynthesizer
	synthKeys []microprobe.Options
	closed    bool

	queue chan *job
	wg    sync.WaitGroup
}

// New builds a server around the configured shared cache and starts its
// workers. Close releases them.
func New(cfg Config) *Server {
	s := newServer(cfg)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// newServer builds a server without starting its workers: submitted jobs
// stay queued until Close.
func newServer(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	now := cfg.Now
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	cache := cfg.Cache
	if cache == nil {
		cache = evalcache.NewMap()
	}
	s := &Server{
		cfg:    cfg,
		group:  evalcache.NewGroup(cache),
		now:    now,
		jobs:   make(map[string]*job),
		synths: make(map[microprobe.Options]*microprobe.CachingSynthesizer),
		queue:  make(chan *job, queueCapacity),
	}
	return s
}

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the workers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, id := range s.order {
		jb := s.jobs[id]
		if !jb.state.Terminal() {
			jb.cancel()
			if jb.state == StateQueued {
				s.finishLocked(jb, StateCancelled, errors.New("server shutting down"))
			}
		}
	}
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Submit validates and enqueues a job. A job must name its kind; every
// other check is the request's own Validate.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	if req.Kind == "" {
		return JobStatus{}, errors.New("serve: job request has no kind")
	}
	if err := req.Validate(); err != nil {
		return JobStatus{}, fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return JobStatus{}, errors.New("serve: server is shut down")
	}
	s.nextID++
	jb := &job{
		id:      fmt.Sprintf("job-%d", s.nextID),
		req:     req,
		state:   StateQueued,
		created: s.now(),
		cancel:  cancel,
		ctx:     ctx,
		changed: make(chan struct{}),
	}
	select {
	case s.queue <- jb:
	default:
		s.nextID--
		s.mu.Unlock()
		cancel()
		return JobStatus{}, fmt.Errorf("serve: job queue is full (%d waiting)", queueCapacity)
	}
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	st := s.statusLocked(jb)
	s.mu.Unlock()
	return st, nil
}

// Status returns a job's status.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(jb), true
}

// List returns every job's status in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Cancel cancels a queued or running job. Cancelling a terminal job is a
// no-op that returns its (unchanged) status.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	if !jb.state.Terminal() {
		jb.cancel()
		if jb.state == StateQueued {
			// The worker will skip it when it reaches the head of the
			// queue; settle its record now.
			s.finishLocked(jb, StateCancelled, context.Canceled)
		}
	}
	return s.statusLocked(jb), true
}

// Result returns a finished job's result. ok is false for unknown jobs;
// err is non-nil while the job is still queued or running.
func (s *Server) Result(id string) (JobResult, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobResult{}, false, nil
	}
	if !jb.state.Terminal() {
		return JobResult{}, true, fmt.Errorf("serve: job %s is %s", id, jb.state)
	}
	return JobResult{
		JobStatus: s.statusLocked(jb),
		Output:    jb.output,
		Series:    append([]experiments.ProgressRow(nil), jb.rows...),
	}, true, nil
}

// RowsSince returns a copy of a job's progression rows from index from on,
// the job's current state, and a channel that is closed on the next
// mutation — everything a streamer needs to tail without polling.
func (s *Server) RowsSince(id string, from int) (rows []experiments.ProgressRow, state State, changed <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, okJob := s.jobs[id]
	if !okJob {
		return nil, "", nil, false
	}
	if from < 0 {
		from = 0
	}
	if from < len(jb.rows) {
		rows = append(rows, jb.rows[from:]...)
	}
	return rows, jb.state, jb.changed, true
}

// Stats returns the daemon-wide cache and queue statistics.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{CacheEntries: s.group.Len(), Synthesizers: len(s.synthKeys), PlatformsBuilt: s.platforms.Built()}
	st.CacheHits, st.CacheMisses = s.group.Stats()
	if dc, ok := s.cfg.Cache.(*evalcache.DiskCache); ok {
		st.DiskPutErrors = dc.PutErrors()
	}
	for _, key := range s.synthKeys {
		syn := s.synths[key]
		h, m := syn.Stats()
		st.SynthHits += h
		st.SynthMisses += m
		st.SynthKernels += syn.Len()
	}
	for _, id := range s.order {
		switch s.jobs[id].state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// statusLocked snapshots a job's status. Caller holds s.mu.
func (s *Server) statusLocked(jb *job) JobStatus {
	st := JobStatus{
		ID:       jb.id,
		Kind:     jb.req.Kind,
		State:    jb.state,
		Created:  jb.created,
		Started:  jb.started,
		Finished: jb.finished,
		Rows:     len(jb.rows),
	}
	if jb.memo != nil { // nil until the job starts
		st.CacheHits, st.CacheMisses = jb.memo.Stats()
	}
	if jb.err != nil {
		st.Error = jb.err.Error()
	}
	return st
}

// broadcastLocked wakes every streamer waiting on the job. Caller holds s.mu.
func (jb *job) broadcastLocked() {
	close(jb.changed)
	jb.changed = make(chan struct{})
}

// finishLocked moves a job to a terminal state. Caller holds s.mu.
func (s *Server) finishLocked(jb *job, state State, err error) {
	jb.state = state
	jb.err = err
	jb.finished = s.now()
	jb.broadcastLocked()
}

// worker drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.runJob(jb)
	}
}

// runJob executes one job end to end through experiments.RunKind, the
// dispatcher mgbench -kind runs too.
func (s *Server) runJob(jb *job) {
	s.mu.Lock()
	if jb.state != StateQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	jb.state = StateRunning
	jb.started = s.now()
	jb.memo = s.group.Attach()
	jb.broadcastLocked()
	s.mu.Unlock()

	// The job runs under its request's budget with what the server owns on
	// top: the fan-out clamped to the per-job cap, the shared caches, the
	// platform pool and the job's row stream.
	b := jb.req.RunBudget()
	if b.Parallel < 1 || b.Parallel > s.cfg.Parallel {
		b.Parallel = s.cfg.Parallel
	}
	b.Memo = jb.memo
	b.Synth = s.synthFor(microprobe.Options{LoopSize: b.LoopSize, Seed: b.Seed})
	b.Platforms = &s.platforms
	b.OnProgress = func(row experiments.ProgressRow) { s.appendRow(jb, row) }
	res, err := experiments.RunKind(jb.ctx, jb.req, b)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		jb.output = res.Output
		s.finishLocked(jb, StateDone, nil)
	case errors.Is(err, context.Canceled):
		s.finishLocked(jb, StateCancelled, context.Canceled)
	default:
		s.finishLocked(jb, StateFailed, err)
	}
	jb.cancel() // release the context's resources
}

// appendRow records one streamed progression row and wakes streamers.
func (s *Server) appendRow(jb *job, row experiments.ProgressRow) {
	s.mu.Lock()
	jb.rows = append(jb.rows, row)
	jb.broadcastLocked()
	s.mu.Unlock()
}

// synthFor returns the pooled caching synthesizer for the given generation
// options, creating it on first use. Pooling by (normalized) options is
// what lets two jobs with the same loop size and seed share synthesized
// kernels while jobs with different options stay apart.
func (s *Server) synthFor(opts microprobe.Options) *microprobe.CachingSynthesizer {
	key := opts.Normalized()
	s.mu.Lock()
	defer s.mu.Unlock()
	if syn, ok := s.synths[key]; ok {
		return syn
	}
	syn := microprobe.NewCachingSynthesizer(key)
	s.synths[key] = syn
	s.synthKeys = append(s.synthKeys, key)
	return syn
}
