package platform

import (
	"sync"
	"testing"
)

func TestPoolReusesReleasedPlatforms(t *testing.T) {
	var pool Pool
	newPlatform, release := pool.Lease(Small())
	a, err := newPlatform()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("one lease handed out the same platform twice")
	}
	release()
	release() // a second release returns nothing
	if got := pool.Built(); got != 2 {
		t.Fatalf("built %d platforms, want 2", got)
	}

	next, releaseNext := pool.Lease(Small())
	defer releaseNext()
	seen := map[Platform]bool{}
	for range 3 {
		p, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatal("a platform was handed out twice")
		}
		seen[p] = true
	}
	if !seen[a] || !seen[b] {
		t.Fatal("the released platforms were not reused")
	}
	if got := pool.Built(); got != 3 {
		t.Fatalf("built %d platforms, want 3 (two reused, one new)", got)
	}
}

// TestPoolNeverTradesAcrossIdentities: two specs with one Kind name but
// different simulators must never share a platform.
func TestPoolNeverTradesAcrossIdentities(t *testing.T) {
	big := Large()
	big.Memory.L2.SizeBytes *= 2
	if big.Kind != LargeCore {
		t.Fatal("the variant must keep the Large name")
	}
	var pool Pool
	newPlatform, release := pool.Lease(Large())
	p, err := newPlatform()
	if err != nil {
		t.Fatal(err)
	}
	release()

	other, releaseOther := pool.Lease(big)
	defer releaseOther()
	q, err := other()
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("a platform of one spec served a different spec with the same kind name")
	}
	if got := q.(*SimPlatform).Spec().Memory.L2.SizeBytes; got != big.Memory.L2.SizeBytes {
		t.Fatalf("leased platform has a %d-byte L2, want %d", got, big.Memory.L2.SizeBytes)
	}
	if got := pool.Built(); got != 2 {
		t.Fatalf("built %d platforms, want 2", got)
	}
}

func TestPoolConcurrentLeases(t *testing.T) {
	var pool Pool
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				newPlatform, release := pool.Lease(Small())
				if _, err := newPlatform(); err != nil {
					t.Error(err)
				}
				release()
			}
		}()
	}
	wg.Wait()
	if got := pool.Built(); got < 1 || got > 4 {
		t.Fatalf("built %d platforms, want between 1 and 4 (the peak in use)", got)
	}
}
