package evalcache

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"micrograd/internal/metrics"
)

func vec(x float64) metrics.Vector { return metrics.Vector{"x": x} }

func TestMapCacheStoresAndCounts(t *testing.T) {
	c := NewMap()
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", vec(1))
	c.Put("b", vec(2))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	v, ok := c.Get("a")
	if !ok || v["x"] != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
}

func TestLRUNeverExceedsCapAndEvictsOldest(t *testing.T) {
	c, err := NewLRU(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), vec(float64(i)))
		if c.Len() > 3 {
			t.Fatalf("after %d puts Len = %d exceeds cap 3", i+1, c.Len())
		}
	}
	// k7..k9 survive, everything older is gone.
	for i := 0; i < 7; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d survived eviction", i)
		}
	}
	for i := 7; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d was evicted while recent", i)
		}
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	c, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", vec(1))
	c.Put("b", vec(2))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before refill")
	}
	c.Put("c", vec(3)) // must evict b, not the just-touched a
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although it was least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a was evicted although it was just touched")
	}
}

func TestLRUPutReplacesInPlace(t *testing.T) {
	c, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", vec(1))
	c.Put("a", vec(9))
	if c.Len() != 1 {
		t.Fatalf("replacing a key grew Len to %d", c.Len())
	}
	if v, _ := c.Get("a"); v["x"] != 9 {
		t.Fatalf("Get(a) = %v after replace", v)
	}
}

func TestLRURejectsNonPositiveCap(t *testing.T) {
	if _, err := NewLRU(0); err == nil {
		t.Fatal("NewLRU(0) succeeded")
	}
}

func TestDiskCacheSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("alpha", vec(1.5))
	c.Put("beta", vec(2.5))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	re, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", re.Len())
	}
	v, ok := re.Get("alpha")
	if !ok || v["x"] != 1.5 {
		t.Fatalf("reopened Get(alpha) = %v, %v", v, ok)
	}
	if _, ok := re.Get("gamma"); ok {
		t.Fatal("reopened cache hit an unknown key")
	}
}

func TestDiskCacheIgnoresTornAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "torn.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d over garbage files, want 0", c.Len())
	}
	c.Put("a", vec(1))
	if v, ok := c.Get("a"); !ok || v["x"] != 1 {
		t.Fatalf("Get(a) = %v, %v after garbage scan", v, ok)
	}
}

// writeEntry writes blob as the entry file of key, the way a damaged or
// foreign writer might have left it.
func writeEntry(t testing.TB, c *DiskCache, key string, blob []byte) {
	t.Helper()
	if err := os.WriteFile(c.path(key), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCacheEntryWithoutMetricsIsAMiss(t *testing.T) {
	for _, blob := range []string{`{"key":"k"}`, `{"key":"k","metrics":null}`, `{"key":"k","metrics":{}}`} {
		dir := t.TempDir()
		c, err := NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		writeEntry(t, c, "k", []byte(blob))
		re, err := NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		if re.Len() != 0 {
			t.Errorf("%s: reopened Len = %d, want 0", blob, re.Len())
		}
		c.present["k"] = true // as if Put had written it
		if v, ok := c.Get("k"); ok {
			t.Errorf("%s: served as a hit with %v", blob, v)
		}
		if c.Len() != 0 {
			t.Errorf("%s: Len = %d after the miss, want 0", blob, c.Len())
		}
	}
}

// FuzzDiskEntry writes arbitrary bytes as a present entry file: Get must
// never panic, and a hit must carry the requested key's non-empty vector.
func FuzzDiskEntry(f *testing.F) {
	f.Add([]byte(`{"key":"k","metrics":{"ipc":1.5}}`))
	f.Add([]byte(`{"key":"k"}`))
	f.Add([]byte(`{"key":"other","metrics":{"ipc":1}}`))
	f.Add([]byte(`{"key":"k","metrics":{}}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`null`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, blob []byte) {
		c := &DiskCache{dir: dir, present: map[string]bool{"k": true}}
		writeEntry(t, c, "k", blob)
		v, ok := c.Get("k")
		if !ok {
			if c.Len() != 0 {
				t.Fatalf("a miss left the key present")
			}
			return
		}
		if len(v) == 0 {
			t.Fatalf("hit with an empty vector from %q", blob)
		}
		ent, err := readDiskEntry(c.path("k"))
		if err != nil || ent.Key != "k" {
			t.Fatalf("hit from an entry keyed %q (%v)", ent.Key, err)
		}
	})
}

func TestDiskCacheCountsPutErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// JSON has no NaN: the entry cannot be marshaled.
	c.Put("nan", metrics.Vector{"x": math.NaN()})
	if got := c.PutErrors(); got != 1 {
		t.Fatalf("PutErrors after a NaN vector = %d, want 1", got)
	}

	// A read-only directory refuses the temporary file. Privileged users
	// write through permission bits, so the directory is then replaced by
	// a plain file, which refuses it for everyone.
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o700) })
	if probe, err := os.CreateTemp(dir, "probe-*"); err == nil {
		probe.Close()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, nil, 0o400); err != nil {
			t.Fatal(err)
		}
	}
	c.Put("ro", vec(1))
	if got := c.PutErrors(); got != 2 {
		t.Fatalf("PutErrors after a read-only write = %d, want 2", got)
	}
	for _, key := range []string{"nan", "ro"} {
		if _, ok := c.Get(key); ok {
			t.Errorf("failed Put(%q) is served as a hit", key)
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after failed puts, want 0", c.Len())
	}
}

func TestNewSelectsBackendByCapacity(t *testing.T) {
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*MapCache); !ok {
		t.Fatalf("New(0) = %T, want *MapCache", c)
	}
	c, err = New(5)
	if err != nil {
		t.Fatal(err)
	}
	lru, ok := c.(*LRUCache)
	if !ok {
		t.Fatalf("New(5) = %T, want *LRUCache", c)
	}
	if lru.cap != 5 {
		t.Fatalf("capacity = %d, want 5", lru.cap)
	}
	if _, err := New(-1); err == nil {
		t.Fatal("New(-1) succeeded")
	}
}

func TestGroupSingleFlightDedupes(t *testing.T) {
	g := NewGroup(NewMap())

	v, f, owner := g.Lookup("k")
	if v != nil || f == nil || !owner {
		t.Fatalf("first Lookup = %v, %v, %v; want owned flight", v, f, owner)
	}
	// A concurrent caller must get the same flight back, not a second one.
	v2, f2, owner2 := g.Lookup("k")
	if v2 != nil || owner2 || f2 != f {
		t.Fatalf("second Lookup = %v, %v, %v; want wait on the same flight", v2, f2, owner2)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var waited metrics.Vector
	go func() {
		defer wg.Done()
		waited, _ = f2.Wait()
	}()
	g.Settle("k", f, vec(7), nil)
	wg.Wait()
	if waited["x"] != 7 {
		t.Fatalf("waiter got %v", waited)
	}

	// Settled value is in the cache; a third Lookup is a plain hit.
	v3, _, owner3 := g.Lookup("k")
	if owner3 || v3["x"] != 7 {
		t.Fatalf("post-settle Lookup = %v, owner=%v", v3, owner3)
	}
	hits, misses := g.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("Stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

func TestGroupFailedFlightIsNotCachedAndRetries(t *testing.T) {
	g := NewGroup(NewMap())
	_, f, owner := g.Lookup("k")
	if !owner {
		t.Fatal("expected owned flight")
	}
	g.Settle("k", f, nil, fmt.Errorf("boom"))
	if _, err := f.Wait(); err == nil {
		t.Fatal("waiter saw no error")
	}
	if g.Len() != 0 {
		t.Fatalf("failed result was cached (Len = %d)", g.Len())
	}
	// The key is evaluable again.
	_, f2, owner2 := g.Lookup("k")
	if !owner2 {
		t.Fatal("retry did not own a fresh flight")
	}
	g.Settle("k", f2, vec(1), nil)
	if g.Len() != 1 {
		t.Fatalf("retry result not cached (Len = %d)", g.Len())
	}
}

func TestGroupWaitersSurviveEviction(t *testing.T) {
	// An LRU of capacity 1: the flight's result may be evicted immediately
	// after settle by a competing put, but waiters read the flight, not the
	// cache, so they still get the value.
	lru, err := NewLRU(1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup(lru)
	_, f, owner := g.Lookup("victim")
	if !owner {
		t.Fatal("expected owned flight")
	}
	done := make(chan metrics.Vector)
	go func() {
		v, _ := f.Wait()
		done <- v
	}()
	g.Settle("victim", f, vec(42), nil)
	// Evict "victim" before the waiter is necessarily scheduled.
	_, f2, _ := g.Lookup("other")
	g.Settle("other", f2, vec(1), nil)
	if v := <-done; v["x"] != 42 {
		t.Fatalf("waiter got %v after eviction", v)
	}
	if lru.Len() != 1 {
		t.Fatalf("LRU Len = %d, want 1", lru.Len())
	}
}

func TestGroupConcurrentLookupsSimulateOnce(t *testing.T) {
	g := NewGroup(NewMap())
	const workers = 16
	var evaluated atomic64
	var wg sync.WaitGroup
	results := make([]metrics.Vector, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, f, owner := g.Lookup("shared")
			if owner {
				evaluated.add(1)
				g.Settle("shared", f, vec(5), nil)
				results[w] = vec(5)
				return
			}
			if v != nil {
				results[w] = v
				return
			}
			results[w], _ = f.Wait()
		}(w)
	}
	wg.Wait()
	if n := evaluated.load(); n != 1 {
		t.Fatalf("%d owners evaluated, want exactly 1", n)
	}
	for w, v := range results {
		if v["x"] != 5 {
			t.Fatalf("worker %d got %v", w, v)
		}
	}
}

// atomic64 avoids importing sync/atomic twice in test helpers.
type atomic64 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic64) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestAttachedGroupsCountTheirOwnLookups pins the per-user counters: two
// groups attached to one share each other's results, each counts only its
// own lookups, and the parent counts them all.
func TestAttachedGroupsCountTheirOwnLookups(t *testing.T) {
	g := NewGroup(NewMap())
	a, b := g.Attach(), g.Attach()
	_, f, owner := a.Lookup("k")
	if !owner {
		t.Fatal("first lookup should own the flight")
	}
	if _, wf, owns := b.Lookup("k"); owns || wf != f {
		t.Fatal("b should wait on a's flight")
	}
	a.Settle("k", f, vec(1), nil)
	if v, _, _ := b.Lookup("k"); v["x"] != 1 {
		t.Fatalf("b does not see a's result: %v", v)
	}
	b.Lookup("other") // b's miss, never settled
	for _, tc := range []struct {
		name         string
		g            *Group
		hits, misses uint64
	}{{"a", a, 0, 1}, {"b", b, 2, 1}, {"parent", g, 2, 2}} {
		if h, m := tc.g.Stats(); h != tc.hits || m != tc.misses {
			t.Errorf("%s: %d hits, %d misses; want %d, %d", tc.name, h, m, tc.hits, tc.misses)
		}
	}
	if a.Len() != 1 || g.Len() != 1 {
		t.Errorf("attached groups see %d/%d entries, want the one shared entry", a.Len(), g.Len())
	}
}
