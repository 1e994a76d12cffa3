// Package evalcache provides the shared, content-addressed evaluation-result
// cache behind tuner.MemoizingEvaluator and the mgserve daemon. A Cache
// stores metric vectors under opaque string keys (the structured EvalKey
// computed at the platform layer); a Group wraps one Cache with the
// single-flight deduplication and hit/miss accounting that make it safe —
// and profitable — to share one cache across many concurrent tuning jobs.
package evalcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"micrograd/internal/metrics"
)

// Cache is a store of evaluation results keyed by content-addressed
// evaluation identity. Implementations are NOT required to be safe for
// concurrent use — Group serializes all access; values passed to Put and
// returned by Get are owned by the caller (Group clones on both sides).
type Cache interface {
	// Get returns the vector stored under key, if any.
	Get(key string) (metrics.Vector, bool)
	// Put stores v under key, evicting older entries if the store is
	// bounded.
	Put(key string, v metrics.Vector)
	// Len returns the number of stored entries.
	Len() int
}

// MapCache is the unbounded in-memory store — the behaviour every
// memoizing evaluator had before the cache became pluggable.
type MapCache struct {
	m map[string]metrics.Vector
}

// NewMap returns an empty unbounded cache.
func NewMap() *MapCache { return &MapCache{m: make(map[string]metrics.Vector)} }

// Get implements Cache.
func (c *MapCache) Get(key string) (metrics.Vector, bool) {
	v, ok := c.m[key]
	return v, ok
}

// Put implements Cache.
func (c *MapCache) Put(key string, v metrics.Vector) { c.m[key] = v }

// Len implements Cache.
func (c *MapCache) Len() int { return len(c.m) }

// LRUCache is a bounded in-memory store with least-recently-used eviction.
// Get refreshes recency; Put of an existing key replaces the value in
// place. The entry count never exceeds the capacity. Entries live in one
// slice, linked into a recency list by int32 index (no cache holds 2^31
// metric vectors), and an eviction reuses the evicted entry's slot, so a
// Put at capacity allocates nothing.
type LRUCache struct {
	cap     int
	entries []lruEntry
	index   map[string]int32 // key -> slot in entries
	// head is the most and tail the least recently used slot (-1 when
	// empty).
	head, tail int32
}

type lruEntry struct {
	key        string
	v          metrics.Vector
	prev, next int32 // towards head and tail; -1 at the ends
}

// NewLRU returns an empty cache holding at most cap entries; cap must be
// positive (use MapCache for an unbounded store).
func NewLRU(cap int) (*LRUCache, error) {
	if cap <= 0 {
		return nil, fmt.Errorf("evalcache: LRU capacity must be positive, got %d", cap)
	}
	return &LRUCache{cap: cap, index: make(map[string]int32), head: -1, tail: -1}, nil
}

// Get implements Cache.
func (c *LRUCache) Get(key string) (metrics.Vector, bool) {
	i, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.moveToFront(i)
	return c.entries[i].v, true
}

// Put implements Cache.
func (c *LRUCache) Put(key string, v metrics.Vector) {
	if i, ok := c.index[key]; ok {
		c.entries[i].v = v
		c.moveToFront(i)
		return
	}
	var i int32
	if len(c.entries) < c.cap {
		i = int32(len(c.entries))
		c.entries = append(c.entries, lruEntry{})
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.index, c.entries[i].key)
	}
	c.entries[i] = lruEntry{key: key, v: v, prev: -1, next: -1}
	c.pushFront(i)
	c.index[key] = i
}

// Len implements Cache.
func (c *LRUCache) Len() int { return len(c.index) }

// moveToFront makes slot i the most recently used.
func (c *LRUCache) moveToFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// unlink takes slot i out of the recency list.
func (c *LRUCache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

// pushFront links the unlinked slot i in as the most recently used.
func (c *LRUCache) pushFront(i int32) {
	e := &c.entries[i]
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// DiskCache persists entries as one JSON file per key under a directory, so
// a daemon restart (or a second process pointed at the same -cache-dir)
// reopens a warm cache. Filenames are the SHA-256 of the key; the key is
// stored inside the file and verified on read, so a hash collision degrades
// to a miss instead of returning a wrong result. Writes go through a
// temporary file and rename, so a crash never leaves a torn entry. A failed
// write leaves the key uncached (a later Get misses) and is counted in
// PutErrors.
type DiskCache struct {
	dir string
	// present tracks the keys known to be on disk (seeded from the directory
	// listing at open), so Len is O(1) and repeated misses skip the syscall.
	present map[string]bool
	// putErrors counts failed writes. It is atomic because statistics
	// readers poll it outside the Group that serializes cache access.
	putErrors atomic.Uint64
}

// diskEntry is the stored JSON document.
type diskEntry struct {
	Key     string         `json:"key"`
	Metrics metrics.Vector `json:"metrics"`
}

const diskSuffix = ".json"

// NewDisk opens (creating if needed) a disk-backed cache rooted at dir.
func NewDisk(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalcache: creating cache dir: %w", err)
	}
	c := &DiskCache{dir: dir, present: make(map[string]bool)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("evalcache: scanning cache dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), diskSuffix) {
			continue
		}
		ent, err := readDiskEntry(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // torn or foreign file: ignore, it will read as a miss
		}
		c.present[ent.Key] = true
	}
	return c, nil
}

// path returns the entry file for a key.
func (c *DiskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+diskSuffix)
}

// Get implements Cache.
func (c *DiskCache) Get(key string) (metrics.Vector, bool) {
	if !c.present[key] {
		return nil, false
	}
	ent, err := readDiskEntry(c.path(key))
	if err != nil || ent.Key != key {
		delete(c.present, key)
		return nil, false
	}
	return ent.Metrics, true
}

// Put implements Cache. The Cache interface has no error return, so a
// failed write — an unmarshalable vector (NaN or ±Inf metrics), or a
// create, write, close or rename failure — is counted in PutErrors instead.
func (c *DiskCache) Put(key string, v metrics.Vector) {
	if err := c.put(key, v); err != nil {
		c.putErrors.Add(1)
		return
	}
	c.present[key] = true
}

// put writes one entry file through a temporary file and rename.
func (c *DiskCache) put(key string, v metrics.Vector) error {
	blob, err := json.Marshal(diskEntry{Key: key, Metrics: v})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if err := errors.Join(werr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// PutErrors returns the number of Puts that failed to persist their entry.
func (c *DiskCache) PutErrors() uint64 { return c.putErrors.Load() }

// Len implements Cache.
func (c *DiskCache) Len() int { return len(c.present) }

// readDiskEntry loads and decodes one entry file. An entry without metrics
// is rejected: every evaluation yields a non-empty vector, so an empty one
// is a foreign or damaged file, and serving it would read 0 for every
// metric.
func readDiskEntry(path string) (diskEntry, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return diskEntry{}, err
	}
	var ent diskEntry
	if err := json.Unmarshal(blob, &ent); err != nil {
		return diskEntry{}, err
	}
	if len(ent.Metrics) == 0 {
		return diskEntry{}, errors.New("evalcache: disk entry has no metrics")
	}
	return ent, nil
}

// New builds the cache a capacity flag selects: cap > 0 is a bounded LRU,
// cap == 0 the unbounded map (the default behaviour).
func New(cap int) (Cache, error) {
	if cap > 0 {
		return NewLRU(cap)
	}
	if cap < 0 {
		return nil, fmt.Errorf("evalcache: capacity must be non-negative, got %d", cap)
	}
	return NewMap(), nil
}
