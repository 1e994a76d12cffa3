// Package tuner implements MicroGrad's tuning mechanisms: the gradient
// descent tuner that is the paper's key novelty (§III-D, Listing 3), the
// genetic-algorithm baseline used by prior work (GeST et al., Table I), a
// brute-force reference search (the "optimal worst case" lines of Figs. 5-6)
// and a random-search baseline.
//
// All tuners operate on the same representation — a knob index vector
// (internal/knobs.Config) — and the same Problem definition, which is what
// lets them be swapped freely inside the MicroGrad framework, exactly as the
// paper's modularity claim requires.
package tuner

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"sync/atomic"

	"micrograd/internal/evalcache"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/platform"
)

// Evaluator is the one evaluation boundary between the tuners and the
// execution back-ends: it maps a batch of knob configurations, all evaluated
// at one fidelity, to the metric vectors measured on the evaluation
// platform; results[i] corresponds to cfgs[i] and must be identical to what
// evaluating the configurations one by one in order would produce, which is
// what lets the tuners fan their hot loops out without changing their
// output. Fidelity in (0,1) asks for a correspondingly cheaper evaluation
// (the successive-halving screening rungs); 1 is the full evaluation, and an
// evaluator that cannot shorten its work may evaluate fully.
//
// Three implementations cover every stack: the serial sched.EvalFunc, the
// worker pool sched.ParallelEvaluator, and MemoizingEvaluator in front of
// either; TunePlatform assembles them over a simulation platform and runs a
// tuner on the result.
type Evaluator interface {
	EvaluateBatch(ctx context.Context, cfgs []knobs.Config, fidelity float64) ([]metrics.Vector, error)
}

// MemoizingEvaluator wraps an Evaluator with a content-addressed result
// cache, so that revisiting a configuration (common late in GA runs and in
// brute-force sweeps) does not pay for a second simulation. Its Misses
// counter is the number of evaluations the wrapped evaluator really ran.
//
// The cache lives in an evalcache.Group, which may be private (unbounded)
// or shared across evaluators and jobs. Keys come from a platform.EvalKeyer,
// which addresses the platform identity, synthesizer options, evaluation
// options, effective simulation window and configuration. Either way it is
// safe for concurrent use: concurrent evaluations of the same key are
// deduplicated single-flight — across every evaluator sharing the group —
// so a key is simulated at most once no matter how many workers ask for it
// simultaneously, and waiters read the flight itself, so a bounded cache
// evicting the entry cannot lose their result. Failed evaluations are not
// cached; a later call retries.
type MemoizingEvaluator struct {
	inner  Evaluator
	group  *evalcache.Group
	keyer  platform.EvalKeyer
	misses atomic.Uint64
}

// NewSharedMemoizingEvaluator wraps inner over an existing cache group, so
// many evaluators (typically one per tuning job) reuse — and race safely
// for — each other's results. keyer must address everything the results
// depend on beyond the configuration and fidelity; a nil group falls back
// to a private unbounded cache.
func NewSharedMemoizingEvaluator(inner Evaluator, group *evalcache.Group, keyer platform.EvalKeyer) *MemoizingEvaluator {
	if group == nil {
		group = evalcache.NewGroup(nil)
	}
	return &MemoizingEvaluator{inner: inner, group: group, keyer: keyer}
}

// EvaluateBatch implements Evaluator. Cached configurations are answered
// immediately, duplicates within the batch (and against concurrent callers)
// are evaluated once, and only the remaining unique misses are forwarded —
// as one batch, at the same fidelity — to the wrapped evaluator. The
// fidelity is part of every key (through the effective simulation window),
// so levels never serve each other's results. Every result is resolved from
// this call's own flights or a concurrent caller's — never re-read from the
// cache — so a bounded cache evicting between settle and read cannot lose a
// batch slot.
func (m *MemoizingEvaluator) EvaluateBatch(ctx context.Context, cfgs []knobs.Config, fidelity float64) ([]metrics.Vector, error) {
	out := make([]metrics.Vector, len(cfgs))
	var (
		misses   []ownedKey     // unique keys this call evaluates, first-seen order
		missCfgs []knobs.Config // their configurations, same order
		waits    []slotFlight   // slots resolved from a flight once it settles
	)
	for i, cfg := range cfgs {
		key := m.keyer.Key(cfg, fidelity)
		hash := maphash.String(batchSeed, key)
		if j := ownedIndex(misses, key, hash); j >= 0 {
			// Duplicate within the batch: resolved from this call's own
			// flight once it settles below.
			waits = append(waits, slotFlight{slot: i, f: misses[j].f})
			continue
		}
		v, f, owner := m.group.Lookup(key)
		if !owner {
			if v != nil {
				out[i] = v
				continue
			}
			waits = append(waits, slotFlight{slot: i, f: f}) // owned by a concurrent caller
			continue
		}
		m.misses.Add(1)
		misses = append(misses, ownedKey{key: key, hash: hash, f: f, slot: i})
		missCfgs = append(missCfgs, cfg)
	}

	var batchErr error
	if len(missCfgs) > 0 {
		vs, err := m.inner.EvaluateBatch(ctx, missCfgs, fidelity)
		batchErr = err
		for j, ms := range misses {
			var v metrics.Vector
			if err == nil {
				v = vs[j]
				out[ms.slot] = v
			}
			m.group.Settle(ms.key, ms.f, v, err)
		}
	}

	// Wait for the remaining flights even on error, so no slot is left
	// unresolved while its owner has already settled. This call's own
	// flights are settled above, so duplicate slots resolve immediately.
	for _, w := range waits {
		v, err := w.f.Wait()
		if err != nil {
			if batchErr == nil {
				batchErr = err
			}
			continue
		}
		out[w.slot] = v
	}
	if batchErr != nil {
		return nil, batchErr
	}
	for i := range out {
		if out[i] == nil {
			return nil, fmt.Errorf("tuner: memoizer lost result for configuration %q", cfgs[i].Key())
		}
	}
	return out, nil
}

// ownedKey is a key one EvaluateBatch call evaluates: its hash, its flight
// and the output slot of its first occurrence.
type ownedKey struct {
	key  string
	hash uint64
	f    *evalcache.Flight
	slot int
}

// slotFlight is an output slot resolved by waiting on a flight.
type slotFlight struct {
	slot int
	f    *evalcache.Flight
}

// batchSeed hashes the keys a batch owns. The hashes only short-cut
// inequality, so the seed changes no result.
var batchSeed = maphash.MakeSeed()

// ownedIndex returns the index of key, whose hash is hash, in owned, or -1.
// The scan keeps a batch free of per-call maps. Comparing hashes first
// matters for large batches: on a 2-vCPU Xeon, EvaluateBatch over 4096
// distinct keys (the brute-force lattice) with an instant inner evaluator
// takes about 24 ms with the hashes and 90-140 ms comparing the keys alone.
func ownedIndex(owned []ownedKey, key string, hash uint64) int {
	for j := range owned {
		if owned[j].hash == hash && owned[j].key == key {
			return j
		}
	}
	return -1
}

// Misses returns the number of requests that triggered an inner evaluation
// — the evaluator's real simulator work, counted per evaluator (a shared
// group's own counters add up every evaluator attached to it).
func (m *MemoizingEvaluator) Misses() uint64 { return m.misses.Load() }

// Problem is one tuning task.
type Problem struct {
	// Space is the knob search space.
	Space *knobs.Space
	// Loss maps measured metrics to the scalar being minimized.
	Loss metrics.Loss
	// Evaluator produces metrics for a candidate configuration.
	Evaluator Evaluator
	// MaxEpochs bounds the number of tuning epochs.
	MaxEpochs int
	// MaxEvaluations bounds the total number of candidate evaluations a run
	// may propose; zero means unlimited. The budget counts *proposed*
	// evaluations — every candidate a tuner submits, whether or not a
	// memoizing evaluator answers it from cache — so a run's budget (and
	// its progression-vs-evaluations curve) is deterministic regardless of
	// what a shared cache happens to contain. MemoizingEvaluator's Misses
	// counter still reports real simulator work separately.
	MaxEvaluations int
	// TargetLoss stops tuning early once the best loss drops to or below
	// this value. Use NoTargetLoss to disable. Negative targets are
	// meaningful — maximized stress metrics have negative losses — so only
	// the sentinel disables the check.
	TargetLoss float64
	// Seed drives every stochastic choice of the tuner.
	Seed int64
	// Initial optionally fixes the starting configuration; when zero the
	// tuner starts from a random configuration (the paper's behaviour).
	Initial knobs.Config
	// Constraint optionally restricts the search to configurations whose
	// measured metric stays at or below a cap. Violating candidates are
	// still evaluated but receive a graded penalty loss that keeps any
	// feasible candidate preferable while pointing the search back toward
	// the feasible region.
	Constraint *Constraint
	// OnEpoch, when set, observes every epoch record the moment it is
	// appended to the progression — the streaming hook long-running callers
	// (the mgserve daemon) use to push rows before the run completes. It is
	// called synchronously from the tuning loop.
	OnEpoch func(EpochRecord)
}

// Constraint is an upper bound on a measured metric (e.g. chip_power_w for
// a power-capped voltage-noise search).
type Constraint struct {
	// Metric names the constrained metric.
	Metric string
	// Max is the largest admissible value.
	Max float64
}

// NoTargetLoss disables the early-stop threshold.
var NoTargetLoss = math.Inf(-1)

// Validate checks the problem definition.
func (p Problem) Validate() error {
	if p.Space == nil {
		return fmt.Errorf("tuner: problem without knob space")
	}
	if p.Loss == nil {
		return fmt.Errorf("tuner: problem without loss")
	}
	if p.Evaluator == nil {
		return fmt.Errorf("tuner: problem without evaluator")
	}
	if p.MaxEpochs <= 0 {
		return fmt.Errorf("tuner: MaxEpochs must be positive, got %d", p.MaxEpochs)
	}
	if p.MaxEvaluations < 0 {
		return fmt.Errorf("tuner: MaxEvaluations must be non-negative, got %d", p.MaxEvaluations)
	}
	if !p.Initial.IsZero() && p.Initial.Space() != p.Space {
		return fmt.Errorf("tuner: initial configuration belongs to a different space")
	}
	if p.Constraint != nil {
		if p.Constraint.Metric == "" {
			return fmt.Errorf("tuner: constraint without a metric name")
		}
		if math.IsNaN(p.Constraint.Max) || math.IsInf(p.Constraint.Max, 0) {
			return fmt.Errorf("tuner: constraint cap must be finite, got %v", p.Constraint.Max)
		}
	}
	return nil
}

// hasTarget reports whether the early-stop threshold is enabled.
func (p Problem) hasTarget() bool {
	return !math.IsInf(p.TargetLoss, -1) && !math.IsNaN(p.TargetLoss)
}

// EpochRecord captures the state of the search after one tuning epoch; the
// sequence of records is the paper's "epoch progression" output.
type EpochRecord struct {
	// Epoch is the 1-based epoch number.
	Epoch int
	// BestLoss is the best loss seen up to and including this epoch.
	BestLoss float64
	// EpochLoss is the loss of the epoch's own output configuration.
	EpochLoss float64
	// Evaluations is the number of platform evaluations performed in this
	// epoch.
	Evaluations int
	// CumulativeEvaluations is the run's total evaluation count at the end
	// of this epoch, so progression series can be plotted against
	// evaluations spent rather than epochs (the fair axis when comparing
	// mechanisms with different per-epoch costs).
	CumulativeEvaluations int
}

// Result is the outcome of a tuning run.
type Result struct {
	// Tuner names the tuning mechanism that produced the result.
	Tuner string
	// Best is the best configuration found.
	Best knobs.Config
	// BestLoss is its loss.
	BestLoss float64
	// BestMetrics is its measured metric vector.
	BestMetrics metrics.Vector
	// Epochs is the per-epoch progression.
	Epochs []EpochRecord
	// TotalEvaluations is the total number of platform evaluations consumed.
	TotalEvaluations int
	// Converged reports whether the run stopped because of convergence or
	// the target-loss threshold (as opposed to exhausting MaxEpochs or the
	// evaluation budget).
	Converged bool
}

// Tuner is a tuning mechanism.
type Tuner interface {
	// Name identifies the mechanism ("gradient-descent", "genetic-algorithm", ...).
	Name() string
	// Run executes the tuning loop until convergence, the target, the epoch
	// budget, or context cancellation.
	Run(ctx context.Context, prob Problem) (Result, error)
}

// better reports whether candidate loss a is strictly better than b.
func better(a, b float64) bool { return a < b }
