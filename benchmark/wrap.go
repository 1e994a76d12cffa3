package main

import (
	"sync"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/program"
)

// In a traced run every platform a job evaluates on is wrapped, and every
// evaluation cache is a timing cache. The wrappers forward every interface
// the stack type-asserts on (platform.RequestEvaluator and
// platform.Identifier always, stress.ConfigEvaluator for co-run chips), so a
// traced job takes exactly the evaluation path — and produces exactly the
// results and cache keys — of an untraced one.

// evalRecord is one evaluation seen at the platform boundary, kept for the
// replay. The request's kernels are not kept (a traced run would otherwise
// hold every kernel it synthesized): the replay re-synthesizes them, and
// the records note how many kernels were new to their core's simulator —
// the runs that pay validation and predecode.
type evalRecord struct {
	job        string
	instance   int
	start, end int64
	req        platform.EvalRequest
	kernels    int
	newKernels int
	metrics    metrics.Vector
}

// cacheOp is one Get or Put seen by a timing cache.
type cacheOp struct {
	job string
	put bool
	key string
	v   metrics.Vector
}

// instance is one wrapped platform: exactly one of core and chip is set.
type instance struct {
	core *platform.CoreSpec
	chip *multicore.CoRunSpec
}

// jobKeying is what the replay needs to rebuild a job's synthesis, keys and
// cache: the inputs its platform.EvalKeyer was built from and a constructor
// for an empty cache of the kind the job used.
type jobKeying struct {
	identity string
	synth    microprobe.Options
	base     platform.EvalOptions
	newCache func() evalcache.Cache
}

// recorder collects a traced run's spans, evaluations and cache operations.
type recorder struct {
	tr *tracer

	mu        sync.Mutex
	evals     []evalRecord
	ops       []cacheOp
	instances []instance
	keying    map[string]jobKeying
}

func newRecorder() *recorder {
	return &recorder{tr: newTracer(), keying: make(map[string]jobKeying)}
}

func (r *recorder) addInstance(in instance) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.instances = append(r.instances, in)
	return len(r.instances) - 1
}

// opCount is the number of cache operations recorded so far.
func (r *recorder) opCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// stores counts the Puts into job's cache from the from-th recorded cache
// operation on, and the distinct keys they stored.
func (r *recorder) stores(job string, from int) (puts, keys int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	for _, op := range r.ops[from:] {
		if op.job == job && op.put {
			puts++
			seen[op.key] = true
		}
	}
	return puts, len(seen)
}

func (r *recorder) setKeying(job string, k jobKeying) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keying[job] = k
}

// requestEvaluator is what both simulated platforms implement.
type requestEvaluator interface {
	platform.Platform
	platform.RequestEvaluator
	platform.Identifier
}

// tracedPlatform times and records every request it forwards.
type tracedPlatform struct {
	inner    requestEvaluator
	rec      *recorder
	job      string
	name     string
	instance int
	// last holds each core's previous kernel: a simulator re-predecodes
	// only when its kernel pointer changes.
	last []*program.Program
}

// tracedChip adds the co-run platform's ConfigEvaluator, whose presence
// selects the chip evaluation path in stress.Run.
type tracedChip struct {
	*tracedPlatform
	chip *multicore.CoRunPlatform
}

// wrapPlatform wraps a simulated platform for job (nil rec: no wrapping).
func wrapPlatform(rec *recorder, job string, p platform.Platform) platform.Platform {
	if rec == nil {
		return p
	}
	switch p := p.(type) {
	case *platform.SimPlatform:
		spec := p.Spec()
		return &tracedPlatform{inner: p, rec: rec, job: job, name: "platform.eval", instance: rec.addInstance(instance{core: &spec})}
	case *multicore.CoRunPlatform:
		spec := p.Spec()
		tp := &tracedPlatform{inner: p, rec: rec, job: job, name: "multicore.eval", instance: rec.addInstance(instance{chip: &spec})}
		return tracedChip{tracedPlatform: tp, chip: p}
	}
	return p
}

func (p *tracedPlatform) Name() string         { return p.inner.Name() }
func (p *tracedPlatform) NumCores() int        { return p.inner.NumCores() }
func (p *tracedPlatform) EvalIdentity() string { return p.inner.EvalIdentity() }

// Evaluate serves the deprecated single-program entry point through the
// recorded request path (both platforms implement it as exactly that).
func (p *tracedPlatform) Evaluate(prog *program.Program, opts platform.EvalOptions) (metrics.Vector, error) {
	resp, err := p.EvaluateRequest(platform.EvalRequest{Programs: []*program.Program{prog}, Options: opts})
	return resp.Metrics, err
}

// EvaluateRequest forwards, times and records one evaluation.
func (p *tracedPlatform) EvaluateRequest(req platform.EvalRequest) (platform.EvalResponse, error) {
	start := p.rec.tr.now()
	resp, err := p.inner.EvaluateRequest(req)
	end := p.rec.tr.now()
	if err != nil {
		return resp, err
	}
	r := evalRecord{job: p.job, instance: p.instance, start: start, end: end, req: req, kernels: len(req.Programs), metrics: resp.Metrics.Clone()}
	cores := p.inner.NumCores()
	if len(p.last) < cores {
		p.last = make([]*program.Program, cores)
	}
	for i := range p.last[:cores] {
		prog := req.Programs[min(i, len(req.Programs)-1)]
		if prog != p.last[i] {
			r.newKernels++
			p.last[i] = prog
		}
	}
	r.req.Programs = nil
	r.req.FreqOverrides = append([]float64(nil), req.FreqOverrides...)
	p.rec.tr.add(p.job, p.name, -1, start, end)
	p.rec.mu.Lock()
	p.rec.evals = append(p.rec.evals, r)
	p.rec.mu.Unlock()
	return resp, nil
}

// EvaluateConfig implements stress.ConfigEvaluator by forwarding; stress.Run
// only type-asserts on it and evaluates through EvaluateRequest.
func (c tracedChip) EvaluateConfig(name string, cfg knobs.Config, syn *microprobe.Synthesizer, opts platform.EvalOptions) (metrics.Vector, error) {
	return c.chip.EvaluateConfig(name, cfg, syn, opts)
}

// timedCache times every Get and Put of the cache it wraps. Group serializes
// all access, so the recorded order is the order the cache saw.
type timedCache struct {
	inner evalcache.Cache
	rec   *recorder
	job   string
}

// wrapCache wraps c for job (nil rec: no wrapping).
func wrapCache(rec *recorder, job string, c evalcache.Cache) evalcache.Cache {
	if rec == nil {
		return c
	}
	return &timedCache{inner: c, rec: rec, job: job}
}

func (c *timedCache) Get(key string) (metrics.Vector, bool) {
	start := c.rec.tr.now()
	v, ok := c.inner.Get(key)
	c.record(cacheOp{job: c.job, key: key}, "evalcache.get", start)
	return v, ok
}

func (c *timedCache) Put(key string, v metrics.Vector) {
	start := c.rec.tr.now()
	c.inner.Put(key, v)
	c.record(cacheOp{job: c.job, put: true, key: key, v: v}, "evalcache.put", start)
}

func (c *timedCache) Len() int { return c.inner.Len() }

func (c *timedCache) record(op cacheOp, name string, start int64) {
	c.rec.tr.add(c.job, name, -1, start, c.rec.tr.now())
	c.rec.mu.Lock()
	c.rec.ops = append(c.rec.ops, op)
	c.rec.mu.Unlock()
}
