package evalcache

import (
	"fmt"
	"testing"

	"micrograd/internal/metrics"
)

// TestAllocsLRUPutAtCapacity pins an LRU Put of a new key into a full
// cache at zero allocations: the evicted entry's slot takes the new one.
func TestAllocsLRUPutAtCapacity(t *testing.T) {
	const capacity, runs = 64, 1000
	c, err := NewLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, capacity+runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	v := metrics.Vector{metrics.IPC: 1}
	for _, k := range keys[:capacity] {
		c.Put(k, v)
	}
	next := capacity
	got := testing.AllocsPerRun(runs, func() {
		c.Put(keys[next], v)
		next++
	})
	if got != 0 {
		t.Errorf("Put at capacity allocates %v times, want 0", got)
	}
	if c.Len() != capacity {
		t.Errorf("Len = %d, want %d", c.Len(), capacity)
	}
}
