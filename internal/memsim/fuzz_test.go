package memsim

import (
	"encoding/binary"
	"testing"
)

// FuzzLRUInclusion checks the LRU stack property (Mattson inclusion): at
// the same set count and without prefetch, a cache with more ways holds
// every line one with fewer ways holds, so on the same address trace it
// hits wherever the smaller one hits and never misses more. The set count
// covers powers of two and the division fallback.
func FuzzLRUInclusion(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(1), []byte{0, 1, 0, 2, 0, 3, 0, 1, 0, 4, 0, 1})
	f.Add(uint8(3), uint8(2), uint8(3), []byte("a stream of addresses that revisits some lines and not others"))
	f.Add(uint8(1), uint8(4), uint8(4), []byte{9, 9, 1, 1, 9, 9, 2, 2, 9, 9, 3, 3, 9, 9, 4, 4, 9, 9, 5, 5})
	f.Fuzz(func(t *testing.T, sets, small, extra uint8, trace []byte) {
		const lineBytes = 64
		numSets := 1 + int(sets%16)
		waysSmall := 1 + int(small%8)
		waysLarge := waysSmall + 1 + int(extra%8)
		newCache := func(ways int) *Cache {
			c, err := NewCache(CacheConfig{Name: "fuzz", SizeBytes: numSets * ways * lineBytes,
				LineBytes: lineBytes, Assoc: ways, HitLatency: 1})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		lo, hi := newCache(waysSmall), newCache(waysLarge)
		// Two bytes per access: the low 15 bits pick a word, so the trace
		// spans 512 lines (several per set).
		for i := 0; i+1 < len(trace); i += 2 {
			addr := uint64(binary.LittleEndian.Uint16(trace[i:])&0x7fff) * 8
			if hitLo, hitHi := lo.Access(addr), hi.Access(addr); hitLo && !hitHi {
				t.Fatalf("access %d (%#x): %d ways hit, %d ways missed", i/2, addr, waysSmall, waysLarge)
			}
		}
		if l, h := lo.Stats().Misses, hi.Stats().Misses; h > l {
			t.Fatalf("%d sets: %d ways missed %d times, %d ways %d times", numSets, waysLarge, h, waysSmall, l)
		}
	})
}
