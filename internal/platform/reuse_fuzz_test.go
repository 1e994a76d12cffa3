package platform_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
)

// FuzzSimPlatformReuse checks reset completeness: evaluating A and then B
// on one SimPlatform gives B the bit-identical metric vector a fresh
// platform gives it, so nothing of A — cache, predictor, simulator or power
// state, window scratch — leaks into B. The configurations come from the
// default, stress and co-run spaces; the core, power collection, the
// instruction counts, A's detail level and whether B reruns A's very kernel
// vary too. The platform then serves A and B in turn four more times, each
// with power collection on or off as the bits of powers pick, so runs that
// record activity windows and runs that skip them interleave on one
// simulator; every response must equal a fresh platform's.
func FuzzSimPlatformReuse(f *testing.F) {
	f.Add(uint8(0), false, int64(1), int64(2), uint16(0), uint16(500), false, true, false, uint8(0b0110))
	f.Add(uint8(1), true, int64(3), int64(3), uint16(1000), uint16(1000), true, true, true, uint8(0b1001))
	f.Add(uint8(2), false, int64(4), int64(5), uint16(3000), uint16(200), true, false, true, uint8(0b0101))
	f.Fuzz(func(t *testing.T, spaceSel uint8, large bool, seedA, seedB int64, instrA, instrB uint16, powerA, powerB, traceA bool, powers uint8) {
		space := []*knobs.Space{knobs.DefaultSpace(), knobs.StressSpace(), knobs.CoRunStressSpace(2)}[spaceSel%3]
		spec := platform.Small()
		if large {
			spec = platform.Large()
		}
		syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: 150, Seed: 1})
		kernel := func(seed int64) platform.EvalRequest {
			p, err := syn.Synthesize("reuse", space.RandomConfig(rand.New(rand.NewSource(seed))))
			if err != nil {
				t.Fatal(err)
			}
			return platform.EvalRequest{Programs: []*program.Program{p}}
		}
		a, b := kernel(seedA), kernel(seedB)
		a.Options = platform.EvalOptions{DynamicInstructions: 1000 + int(instrA%4000), Seed: seedA, CollectPower: powerA}
		if traceA {
			a.Detail = platform.DetailTrace
		}
		b.Options = platform.EvalOptions{DynamicInstructions: 1000 + int(instrB%4000), Seed: seedB, CollectPower: powerB}

		evaluate := func(plat *platform.SimPlatform, req platform.EvalRequest) metrics.Vector {
			resp, err := plat.EvaluateRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			return resp.Metrics
		}
		same := func(what string, got, want metrics.Vector) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s has %d metrics, on a fresh platform %d", what, len(got), len(want))
			}
			for name, w := range want {
				if g, ok := got[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s: %s %v, on a fresh platform %v", name, what, g, w)
				}
			}
		}
		reused := newSim(t, spec)
		evaluate(reused, a)
		same("B after A", evaluate(reused, b), evaluate(newSim(t, spec), b))

		a.Detail = platform.DetailMetrics
		for i, req := range []platform.EvalRequest{a, b, a, b} {
			req.Options.CollectPower = powers&(1<<i) != 0
			same(fmt.Sprintf("request %d (power %t) of the interleaving", i, req.Options.CollectPower),
				evaluate(reused, req), evaluate(newSim(t, spec), req))
		}
	})
}

func newSim(t *testing.T, spec platform.CoreSpec) *platform.SimPlatform {
	t.Helper()
	plat, err := platform.NewSimPlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plat
}
