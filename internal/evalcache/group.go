package evalcache

import (
	"sync"
	"sync/atomic"

	"micrograd/internal/metrics"
)

// Flight is one in-progress evaluation. Callers that request a key already
// being evaluated wait on the flight instead of paying for a duplicate
// simulation; the result settles into the flight itself, so waiters are
// immune to the cache evicting the entry between settle and read. A flight
// is one allocation: waiters block on its embedded WaitGroup.
type Flight struct {
	done sync.WaitGroup
	v    metrics.Vector
	err  error
}

// Wait blocks until the flight settles and returns its result (cloned, so
// every waiter owns its vector).
func (f *Flight) Wait() (metrics.Vector, error) {
	f.done.Wait()
	if f.err != nil {
		return nil, f.err
	}
	return f.v.Clone(), nil
}

// Group wraps one Cache with the concurrency machinery that makes it
// shareable: a mutex serializing cache access, a single-flight table
// deduplicating concurrent evaluations of the same key, and hit/miss
// counters aggregated across every evaluator attached to the group. One
// Group per mgserve daemon (or per standalone run) is the unit of sharing;
// Attach gives one user of it counters of its own.
type Group struct {
	*shared
	// parent is the group an attached group also counts in (nil for a
	// group from NewGroup).
	parent *Group
	hits   atomic.Uint64
	misses atomic.Uint64
}

// shared is what a group and every group attached to it have in common.
type shared struct {
	mu      sync.Mutex
	cache   Cache
	flights map[string]*Flight
}

// NewGroup wraps a cache. A nil cache means an unbounded map.
func NewGroup(c Cache) *Group {
	if c == nil {
		c = NewMap()
	}
	return &Group{shared: &shared{cache: c, flights: make(map[string]*Flight)}}
}

// Attach returns a group over g's cache and in-flight table with counters
// of its own: its Stats count only the lookups made through it, and each
// of those also counts in g (and in whatever g is attached to). mgserve
// attaches one per job, so a job's hits and misses are its own while every
// job still shares every result.
func (g *Group) Attach() *Group {
	return &Group{shared: g.shared, parent: g}
}

// count records one lookup in g and every group it is attached to.
func (g *Group) count(hit bool) {
	for ; g != nil; g = g.parent {
		if hit {
			g.hits.Add(1)
		} else {
			g.misses.Add(1)
		}
	}
}

// Lookup resolves a key against the cache and the in-flight table:
//
//   - cache hit: returns (cloned vector, nil, false);
//   - another caller is evaluating the key: returns (nil, flight, false) —
//     call Wait;
//   - miss: registers and returns (nil, flight, true) — the caller now owns
//     the flight and MUST Settle it exactly once.
//
// Hits (including waits on foreign flights) and misses are counted here.
func (g *Group) Lookup(key string) (metrics.Vector, *Flight, bool) {
	g.mu.Lock()
	if v, ok := g.cache.Get(key); ok {
		v = v.Clone()
		g.mu.Unlock()
		g.count(true)
		return v, nil, false
	}
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		g.count(true)
		return nil, f, false
	}
	f := &Flight{}
	f.done.Add(1)
	g.flights[key] = f
	g.mu.Unlock()
	g.count(false)
	return nil, f, true
}

// Settle records an owned flight's outcome: successful results enter the
// cache (cloned), the flight leaves the table, and every waiter is
// released. Failed evaluations are not cached; a later Lookup retries.
func (g *Group) Settle(key string, f *Flight, v metrics.Vector, err error) {
	g.mu.Lock()
	if err == nil {
		g.cache.Put(key, v.Clone())
	}
	f.v, f.err = v, err
	delete(g.flights, key)
	g.mu.Unlock()
	f.done.Done()
}

// Len returns the number of cached entries.
func (g *Group) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cache.Len()
}

// Stats returns the group's hit and miss counts: those of every lookup made
// through it or through a group attached to it — the counters cross-job
// sharing is measured by.
func (g *Group) Stats() (hits, misses uint64) {
	return g.hits.Load(), g.misses.Load()
}
