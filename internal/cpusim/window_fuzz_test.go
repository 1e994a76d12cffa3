package cpusim

import (
	"math/rand"
	"reflect"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
)

// FuzzWindowedRunMatchesTotals checks the window bookkeeping on random
// stress-space kernels, both cores, any window length and run seed: a run
// with WindowCycles N reports the cycles, instructions and every total a
// run with WindowCycles 0 does, bit for bit, and its windows tile the run
// and sum to those totals.
func FuzzWindowedRunMatchesTotals(f *testing.F) {
	f.Add(int64(1), false, int64(1), uint16(63), uint16(2000))
	f.Add(int64(2), true, int64(7), uint16(0), uint16(500))
	f.Add(int64(3), true, int64(-4), uint16(99), uint16(3999))
	f.Fuzz(func(t *testing.T, cfgSeed int64, large bool, runSeed int64, window, instr uint16) {
		cfg := knobs.StressSpace().RandomConfig(rand.New(rand.NewSource(cfgSeed)))
		p, err := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 150, Seed: 1}).Synthesize("window-fuzz", cfg)
		if err != nil {
			t.Fatal(err)
		}
		core, hier := smallCore(), smallHier
		if large {
			core, hier = largeCore(), largeHier
		}
		n := 500 + int(instr%4000)
		run := func(winCycles int) Result {
			c := core
			c.WindowCycles = winCycles
			cpu, err := New(c, hier(t), pred(t, 12))
			if err != nil {
				t.Fatal(err)
			}
			res, err := cpu.RunShared(p, n, runSeed)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		winCycles := 1 + int(window%256)
		plain, windowed := run(0), run(winCycles)
		wins := windowed.Windows

		totals := windowed
		totals.Windows, totals.Config.WindowCycles = nil, 0
		if !reflect.DeepEqual(totals, plain) {
			t.Fatalf("WindowCycles %d changed the run's totals:\n got %+v\nwant %+v", winCycles, totals, plain)
		}

		var sum Window
		for i, w := range wins {
			if w.Cycles == 0 || w.Cycles > uint64(winCycles) || (i < len(wins)-1 && w.Cycles != uint64(winCycles)) {
				t.Fatalf("window %d of %d has %d cycles, window length %d", i, len(wins), w.Cycles, winCycles)
			}
			sum.Cycles += w.Cycles
			sum.Instructions += w.Instructions
			for cl, c := range w.ClassCounts {
				sum.ClassCounts[cl] += c
			}
			sum.L2Accesses += w.L2Accesses
			sum.MemAccesses += w.MemAccesses
			sum.Mispredicts += w.Mispredicts
		}
		want := Window{
			Cycles:       plain.Cycles,
			Instructions: plain.Instructions,
			ClassCounts:  plain.ClassCounts,
			L2Accesses:   plain.L2.Accesses + plain.L2.Prefetches,
			MemAccesses:  plain.MemAccesses,
			Mispredicts:  plain.Branch.Mispredicts,
		}
		if sum != want {
			t.Fatalf("%d windows of %d cycles sum to %+v, the run's totals are %+v", len(wins), winCycles, sum, want)
		}
	})
}
