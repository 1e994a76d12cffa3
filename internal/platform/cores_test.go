package platform_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
)

// TestSynthesizeCoresMatchesDirectSynthesis pins the per-core kernels
// SynthesizeCores builds for co-run, DVFS and spatial configurations to
// synthesizing every core through the whole pass pipeline: equal under reflect.DeepEqual and byte-identical under
// EmitAssembly and EmitC. The configurations keep core 0 at phase offset 0
// and put the other cores at every value of the phase grid (up to 368
// instructions, above the 99-instruction body of the 100-instruction loop),
// have only the last core move through the grid, or are random. A plain
// synthesizer builds every kernel; a caching one shared across the
// configurations also serves some cores from its memo and builds the rest,
// a single miss through the whole pipeline and several by derivation.
func TestSynthesizeCoresMatchesDirectSynthesis(t *testing.T) {
	const cores = 4
	rng := rand.New(rand.NewSource(5))
	for _, sp := range []struct {
		name  string
		space *knobs.Space
	}{
		{"corun", knobs.CoRunStressSpace(cores)},
		{"dvfs", knobs.DVFSStressSpace(cores)},
		{"spatial", knobs.SpatialStressSpace(cores)},
	} {
		var cfgs []knobs.Config
		grid := sp.space.Def(mustIndex(t, sp.space, knobs.PhaseOffsetName(0))).NumValues()
		for v := 0; v < grid; v++ {
			cfg := sp.space.MidConfig()
			// Core 0 stays at offset 0, so from the second configuration
			// on the caching synthesizer serves it from its memo.
			cfg = cfg.WithIndex(mustIndex(t, sp.space, knobs.PhaseOffsetName(0)), 0)
			for i := 1; i < cores; i++ {
				cfg = cfg.WithIndex(mustIndex(t, sp.space, knobs.PhaseOffsetName(i)), (v+5*i)%grid)
			}
			cfgs = append(cfgs, cfg)
		}
		// Then only the last core moves, so the caching synthesizer misses
		// one core per configuration.
		last := mustIndex(t, sp.space, knobs.PhaseOffsetName(cores-1))
		for v := 0; v < grid; v++ {
			cfgs = append(cfgs, cfgs[len(cfgs)-1].WithIndex(last, v))
		}
		for range 8 {
			cfgs = append(cfgs, sp.space.RandomConfig(rng))
		}
		for _, loopSize := range []int{100, 500} {
			opts := microprobe.Options{LoopSize: loopSize, Seed: 9}
			direct := microprobe.NewSynthesizer(opts)
			plain := microprobe.NewSynthesizer(opts)
			caching := microprobe.NewCachingSynthesizer(opts)
			names := make([]string, cores)
			platform.CoreKernelNames(names, sp.name)
			for c, cfg := range cfgs {
				want := make([]*program.Program, cores)
				for i := range want {
					set := cfg.Settings()
					off, _ := cfg.ValueByName(knobs.PhaseOffsetName(i))
					set.PhaseOffset = int(off)
					p, err := direct.SynthesizeSettings(names[i], set)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = p
				}
				for _, syn := range []struct {
					name string
					syn  interface {
						SynthesizeCores([]*program.Program, []string, knobs.Config) error
					}
				}{{"plain", plain}, {"caching", caching}} {
					got := make([]*program.Program, cores)
					if err := syn.syn.SynthesizeCores(got, names, cfg); err != nil {
						t.Fatal(err)
					}
					for i := range got {
						sameKernel(t, fmt.Sprintf("%s loop %d config %d core %d (%s)", sp.name, loopSize, c, i, syn.name), got[i], want[i])
					}
				}
			}
			if hits, _ := caching.Stats(); hits == 0 {
				t.Errorf("%s loop %d: the caching synthesizer served no core from its memo", sp.name, loopSize)
			}
		}
	}
}

func mustIndex(t *testing.T, space *knobs.Space, name string) int {
	t.Helper()
	k, ok := space.IndexOf(name)
	if !ok {
		t.Fatalf("space has no %s", name)
	}
	return k
}

// sameKernel fails the test unless got and want are the same kernel under
// reflect.DeepEqual and emit the same assembly and C.
func sameKernel(t *testing.T, what string, got, want *program.Program) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: kernel differs from direct synthesis", what)
	}
	var ga, wa, gc, wc bytes.Buffer
	for _, err := range []error{got.EmitAssembly(&ga), want.EmitAssembly(&wa), got.EmitC(&gc), want.EmitC(&wc)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ga.Bytes(), wa.Bytes()) || !bytes.Equal(gc.Bytes(), wc.Bytes()) {
		t.Fatalf("%s: emitted kernel differs from direct synthesis", what)
	}
}
