package program_test

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/multicore"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
	"micrograd/internal/workloads"
)

// update re-records the emitted kernels instead of comparing:
//
//	go test ./internal/program -run TestEmitGolden -update
var update = flag.Bool("update", false, "rewrite the emitted kernels under testdata/golden")

// goldenKernels returns the kernels whose emitted assembly and C are pinned:
// the hand-built unit-test kernel and synthesized stress, cloning, co-run
// and spatial kernels, each from a fixed configuration.
func goldenKernels(t *testing.T) []*program.Program {
	t.Helper()
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 160, Seed: 5})
	config := func(space *knobs.Space, seed int64) knobs.Config {
		return space.RandomConfig(rand.New(rand.NewSource(seed)))
	}
	must := func(p *program.Program, err error) *program.Program {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	progs := []*program.Program{
		program.HandBuiltProgram(t),
		must(syn.Synthesize("stress-power", config(knobs.StressSpace(), 1))),
		must(syn.Synthesize("stress-voltage-noise", config(knobs.TransientStressSpace(), 2))),
		must(syn.Synthesize("clone-mcf", config(knobs.DefaultSpace(), 3))),
	}
	mcf, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, must(mcf.Program()))

	chip := multicore.Homogeneous(platform.Small(), 4)
	for _, c := range []struct {
		name  string
		spec  multicore.CoRunSpec
		space *knobs.Space
	}{
		{"corun", chip, knobs.CoRunStressSpace(4)},
		{"spatial", chip.WithGrid(2, 2, nil), knobs.SpatialStressSpace(4)},
	} {
		plat, err := multicore.New(c.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		cores, err := plat.SynthesizeCoRun(c.name, config(c.space, 4), syn)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, cores...)
	}
	return progs
}

// TestEmitGolden pins EmitAssembly and EmitC byte for byte on every golden
// kernel, so a change to the kernel representation cannot change what a
// user assembles or compiles.
func TestEmitGolden(t *testing.T) {
	for _, p := range goldenKernels(t) {
		t.Run(p.Name, func(t *testing.T) {
			var asm, c bytes.Buffer
			if err := p.EmitAssembly(&asm); err != nil {
				t.Fatal(err)
			}
			if err := p.EmitC(&c); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, p.Name+".S", asm.Bytes())
			checkGolden(t, p.Name+".c", c.Bytes())
		})
	}
}

// TestDynamicPowerMatchesBreakdown runs every golden kernel on both cores,
// at the spec clock and under a DVFS override, and pins the power model's
// DynamicPower to its reporting path, EnergyBreakdown(r).PowerW(), bit for
// bit.
func TestDynamicPowerMatchesBreakdown(t *testing.T) {
	kernels := goldenKernels(t)
	for _, spec := range platform.Cores() {
		plat, err := platform.NewSimPlatform(spec)
		if err != nil {
			t.Fatal(err)
		}
		model, err := powersim.New(spec.Power)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range kernels {
			for _, ghz := range []float64{0, 1.3} {
				resp, err := plat.EvaluateRequest(platform.EvalRequest{
					Programs: []*program.Program{p},
					Options:  platform.EvalOptions{DynamicInstructions: 3000, Seed: 7, FrequencyGHz: ghz},
					Detail:   platform.DetailResult,
				})
				if err != nil {
					t.Fatal(err)
				}
				r := resp.Results[0]
				got, want := model.DynamicPower(r), model.EnergyBreakdown(r).PowerW()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s on %s at %g GHz: DynamicPower = %v, EnergyBreakdown.PowerW = %v", p.Name, spec.Kind, ghz, got, want)
				}
			}
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (re-record with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden (%d bytes, want %d); re-record an intended change with -update", name, len(got), len(want))
	}
}
