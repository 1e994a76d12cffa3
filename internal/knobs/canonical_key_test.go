package knobs

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"micrograd/internal/isa"
)

// canonicalKeyOracle is the fmt-based CanonicalKey the package shipped
// before the key was built by appending into one buffer. It is the
// reference the pins and FuzzCanonicalKey compare the production key with
// byte for byte.
func canonicalKeyOracle(s Settings) string {
	var b strings.Builder
	for _, op := range slices.Sorted(maps.Keys(s.InstrWeights)) {
		fmt.Fprintf(&b, "%d:%g,", int(op), s.InstrWeights[op])
	}
	fmt.Fprintf(&b, "|rd=%d|fp=%d|st=%d|t1=%d|t2=%d|br=%g|dc=%g|bl=%d|po=%d",
		s.RegDist, s.MemFootprintKB, s.MemStrideB, s.MemTemp1, s.MemTemp2,
		s.BranchRandomRatio, s.DutyCycle, s.BurstLen, s.PhaseOffset)
	return b.String()
}

// pinnedKeySettings are the settings whose canonical keys are pinned: a
// stress kernel, a cloning reference profile (astar's), a co-run core's
// copy with its phase offset, and a profile whose weights print in
// exponent form.
func pinnedKeySettings() map[string]Settings {
	corun := CoRunStressSpace(2).MidConfig().Settings()
	corun.PhaseOffset = 96
	return map[string]Settings{
		"stress": StressSpace().MidConfig().Settings(),
		"clone-reference": {
			InstrWeights: map[isa.Opcode]float64{isa.ADD: 28, isa.SUB: 9, isa.MUL: 3, isa.SLL: 4,
				isa.BEQ: 7, isa.BNE: 9, isa.LD: 22, isa.LW: 8, isa.SD: 6, isa.SW: 4},
			RegDist: 4, MemFootprintKB: 384, MemStrideB: 24,
			MemTemp1: 16, MemTemp2: 6, BranchRandomRatio: 0.42,
		},
		"corun-phase": corun,
		"exponent": {
			InstrWeights: map[isa.Opcode]float64{isa.ADD: 1e-07, isa.FMULD: 2.5e+21, isa.LD: 0.1},
			RegDist:      2, MemFootprintKB: 1024, MemStrideB: 64,
			MemTemp1: 1, MemTemp2: 1, BranchRandomRatio: 1e-05, DutyCycle: 0.25, BurstLen: 128,
		},
	}
}

func TestCanonicalKeyPinned(t *testing.T) {
	want := map[string]string{
		"stress":          "0:6,1:6,2:6,3:6,4:6,5:6,6:6,7:6,8:6,9:6,|rd=6|fp=16|st=8|t1=16|t2=4|br=0.1|dc=1|bl=64|po=0",
		"clone-reference": "0:28,1:3,4:7,5:9,6:22,7:8,8:6,9:4,10:9,14:4,|rd=4|fp=384|st=24|t1=16|t2=6|br=0.42|dc=0|bl=0|po=0",
		"corun-phase":     "0:6,1:6,2:6,3:6,4:6,5:6,6:6,7:6,8:6,9:6,|rd=6|fp=16|st=8|t1=16|t2=4|br=0.1|dc=0.6|bl=96|po=96",
		"exponent":        "0:1e-07,3:2.5e+21,6:0.1,|rd=2|fp=1024|st=64|t1=1|t2=1|br=1e-05|dc=0.25|bl=128|po=0",
	}
	for name, s := range pinnedKeySettings() {
		if got := s.CanonicalKey(); got != want[name] {
			t.Errorf("%s: CanonicalKey() =\n  %q\nwant\n  %q", name, got, want[name])
		}
		if got, oracle := s.CanonicalKey(), canonicalKeyOracle(s); got != oracle {
			t.Errorf("%s: CanonicalKey() = %q, oracle %q", name, got, oracle)
		}
	}
}

// FuzzCanonicalKey asserts that CanonicalKey produces exactly the bytes of
// the fmt-based oracle for any weights (tiny, huge, negative zero, NaN and
// infinities included) and any value of every integer field.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(uint8(3), 0.25, 1e-300, 1e300, math.Copysign(0, -1), 0.1, 1.0, 4, 16, 8, 16, 4, 64, 0)
	f.Add(uint8(0), 1.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1, 1, 1, 1, 1, 2, 499)
	f.Add(uint8(255), math.Inf(1), math.NaN(), 5e-324, math.MaxFloat64, -1.5, math.Inf(-1),
		math.MinInt64, math.MaxInt64, -1, 0, 1<<40, -7, math.MaxInt32)
	f.Fuzz(func(t *testing.T, mask uint8, w0, w1, w2, w3, br, dc float64, rd, fp, st, t1, t2, bl, po int) {
		weights := []float64{w0, w1, w2, w3}
		s := Settings{
			InstrWeights: map[isa.Opcode]float64{},
			RegDist:      rd, MemFootprintKB: fp, MemStrideB: st, MemTemp1: t1, MemTemp2: t2,
			BranchRandomRatio: br, DutyCycle: dc, BurstLen: bl, PhaseOffset: po,
		}
		// The mask picks which opcodes carry a weight, spread over the
		// opcode range so the sort order is exercised.
		for i := 0; i < 8; i++ {
			if mask&(1<<i) != 0 {
				s.InstrWeights[isa.Opcode(i*3%isa.NumOpcodes)] = weights[i%len(weights)]
			}
		}
		if got, want := s.CanonicalKey(), canonicalKeyOracle(s); got != want {
			t.Fatalf("CanonicalKey() = %q, oracle %q", got, want)
		}
	})
}
