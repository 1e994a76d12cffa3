package platform_test

import (
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
// vary too.
func FuzzSimPlatformReuse(f *testing.F) {
	f.Add(uint8(0), false, int64(1), int64(2), uint16(0), uint16(500), false, true, false)
	f.Add(uint8(1), true, int64(3), int64(3), uint16(1000), uint16(1000), true, true, true)
	f.Add(uint8(2), false, int64(4), int64(5), uint16(3000), uint16(200), true, false, true)
	f.Fuzz(func(t *testing.T, spaceSel uint8, large bool, seedA, seedB int64, instrA, instrB uint16, powerA, powerB, traceA bool) {
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
		reused, fresh := newSim(t, spec), newSim(t, spec)
		evaluate(reused, a)
		got, want := evaluate(reused, b), evaluate(fresh, b)
		if len(got) != len(want) {
			t.Fatalf("B after A has %d metrics, on a fresh platform %d", len(got), len(want))
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: B after A %v, on a fresh platform %v", name, g, w)
			}
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
