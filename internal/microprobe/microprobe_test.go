package microprobe

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/program"
)

// aluSettings are the settings of an instruction-only configuration with an
// ADD-only profile: every memory, branch and duty knob at its default.
func aluSettings() knobs.Settings {
	set := knobs.InstructionOnlySpace().MidConfig().Settings()
	set.Profile = knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 1})
	return set
}

// newBuilder starts a builder the way a Synthesizer does.
func newBuilder(name string) *Builder {
	b := new(Builder)
	b.reset(name)
	return b
}

func TestSimpleBuildingBlockPass(t *testing.T) {
	b := newBuilder("t")
	if err := b.Apply(SimpleBuildingBlockPass{LoopSize: 50}); err != nil {
		t.Fatal(err)
	}
	p := b.Program()
	if p.StaticCount() != 50 {
		t.Fatalf("static count %d, want 50", p.StaticCount())
	}
	if p.Note(0).Label != "kernel_loop" {
		t.Error("first instruction should carry the loop label")
	}
	last := p.Instructions[len(p.Instructions)-1]
	if !last.Op.IsBranch() {
		t.Errorf("last instruction %v is not a branch", last.Op)
	}
	// Applying twice must fail.
	if err := b.Apply(SimpleBuildingBlockPass{LoopSize: 50}); err == nil {
		t.Error("second building-block pass should fail")
	}
	// Too-small loop must fail.
	if err := newBuilder("t2").Apply(SimpleBuildingBlockPass{LoopSize: 1}); err == nil {
		t.Error("loop size 1 should be rejected")
	}
}

func TestReserveRegistersPass(t *testing.T) {
	b := newBuilder("t")
	if err := b.Apply(ReserveRegistersPass{Regs: isa.DefaultReserved()}); err != nil {
		t.Fatal(err)
	}
	if !b.IsReserved(isa.RegLoop) || !b.IsReserved(isa.RegZero) {
		t.Error("reserved registers not recorded")
	}
	if b.IsReserved(isa.IntReg(20)) {
		t.Error("unreserved register reported reserved")
	}
	if err := b.Apply(ReserveRegistersPass{Regs: []isa.Reg{{Index: isa.NumIntRegs}}}); err == nil {
		t.Error("invalid register should be rejected")
	}
}

func TestSetInstructionTypeByProfilePass(t *testing.T) {
	b := newBuilder("t")
	profile := knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 5, isa.LD: 3, isa.SD: 2})
	err := b.Apply(
		SimpleBuildingBlockPass{LoopSize: 101},
		SetInstructionTypeByProfilePass{Profile: profile},
	)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[isa.Opcode]int{}
	for _, in := range b.Program().Instructions[:100] {
		counts[in.Op]++
	}
	if counts[isa.ADD] != 50 || counts[isa.LD] != 30 || counts[isa.SD] != 20 {
		t.Errorf("profile apportionment wrong: %v", counts)
	}
	// Placement should interleave: no long runs of the same opcode for a
	// balanced profile.
	maxRun, run := 0, 0
	var prev isa.Opcode = isa.NOP
	for _, in := range b.Program().Instructions[:100] {
		if in.Op == prev {
			run++
		} else {
			run = 1
			prev = in.Op
		}
		if run > maxRun {
			maxRun = run
		}
	}
	if maxRun > 3 {
		t.Errorf("placement clusters opcodes: max run %d", maxRun)
	}
}

func TestSetInstructionTypeByProfileErrors(t *testing.T) {
	b := newBuilder("t")
	if err := b.Apply(SetInstructionTypeByProfilePass{Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 1})}); err == nil {
		t.Error("profile pass before building block should fail")
	}
	b2 := newBuilder("t2")
	_ = b2.Apply(SimpleBuildingBlockPass{LoopSize: 10})
	if err := b2.Apply(SetInstructionTypeByProfilePass{}); err == nil {
		t.Error("empty profile should fail")
	}
	if err := b2.Apply(SetInstructionTypeByProfilePass{Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: -1})}); err == nil {
		t.Error("negative weight should fail")
	}
	if err := b2.Apply(SetInstructionTypeByProfilePass{Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 0})}); err == nil {
		t.Error("zero total weight should fail")
	}
}

func TestRandomizeByTypePass(t *testing.T) {
	b := newBuilder("t")
	err := b.Apply(
		SimpleBuildingBlockPass{LoopSize: 51},
		SetInstructionTypeByProfilePass{Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.BEQ: 1, isa.ADD: 1})},
		RandomizeByTypePass{Probability: 0.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := b.Program()
	if len(p.Patterns) != 1 || p.Patterns[0].RandomRatio != 0.4 {
		t.Fatalf("pattern not created correctly: %+v", p.Patterns)
	}
	for i, in := range p.Instructions[:50] {
		if in.IsCondBranch() && in.Pattern != 0 {
			t.Errorf("branch %d not assigned to pattern", i)
		}
	}
	if err := b.Apply(RandomizeByTypePass{Probability: 1.5}); err == nil {
		t.Error("probability > 1 should be rejected")
	}
}

func TestGenericMemoryStreamsPass(t *testing.T) {
	b := newBuilder("t")
	err := b.Apply(
		SimpleBuildingBlockPass{LoopSize: 101},
		SetInstructionTypeByProfilePass{Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.LD: 1, isa.SD: 1})},
		GenericMemoryStreamsPass{Streams: []StreamSpec{
			{FootprintBytes: 4096, Ratio: 0.75, StrideBytes: 8},
			{FootprintBytes: 65536, Ratio: 0.25, StrideBytes: 64},
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := b.Program()
	if len(p.Streams) != 2 {
		t.Fatalf("want 2 streams, got %d", len(p.Streams))
	}
	if p.Streams[0].Base == p.Streams[1].Base {
		t.Error("streams overlap")
	}
	counts := [2]int{}
	total := 0
	for _, in := range p.Instructions {
		if in.IsMemory() {
			counts[in.Stream]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no memory instructions assigned")
	}
	frac0 := float64(counts[0]) / float64(total)
	if math.Abs(frac0-0.75) > 0.05 {
		t.Errorf("stream 0 carries %.2f of accesses, want ~0.75", frac0)
	}
}

func TestGenericMemoryStreamsErrors(t *testing.T) {
	b := newBuilder("t")
	_ = b.Apply(SimpleBuildingBlockPass{LoopSize: 10})
	cases := []GenericMemoryStreamsPass{
		{},
		{Streams: []StreamSpec{{FootprintBytes: 0, Ratio: 1, StrideBytes: 8}}},
		{Streams: []StreamSpec{{FootprintBytes: 64, Ratio: -1, StrideBytes: 8}}},
		{Streams: []StreamSpec{{FootprintBytes: 64, Ratio: 0, StrideBytes: 8}}},
	}
	for i, p := range cases {
		if err := p.Apply(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	empty := newBuilder("e")
	if err := (GenericMemoryStreamsPass{Streams: []StreamSpec{{FootprintBytes: 64, Ratio: 1, StrideBytes: 8}}}).Apply(empty); err == nil {
		t.Error("streams before building block should fail")
	}
}

func TestDefaultRegisterAllocationDependencyDistance(t *testing.T) {
	for _, dd := range []int{1, 2, 4, 8} {
		b := newBuilder("t")
		err := b.Apply(
			SimpleBuildingBlockPass{LoopSize: 41},
			ReserveRegistersPass{Regs: isa.DefaultReserved()},
			SetInstructionTypeByProfilePass{Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 1})},
			DefaultRegisterAllocationPass{DepDist: dd},
		)
		if err != nil {
			t.Fatal(err)
		}
		// For an all-ADD body, instruction i should read the register written
		// by instruction i-dd (within the steady-state part of the loop).
		instrs := b.Program().Instructions
		lastWriter := map[int]int{} // reg ID -> instruction index
		for i := 0; i < len(instrs)-1; i++ {
			in := instrs[i]
			if in.NumSrcs > 0 {
				if w, ok := lastWriter[in.Srcs[0].ID()]; ok {
					if got := i - w; got != dd {
						t.Errorf("dd=%d: instruction %d reads value produced %d earlier", dd, i, got)
						break
					}
				}
			}
			if isa.Describe(in.Op).HasDest {
				lastWriter[in.Dest.ID()] = i
			}
		}
	}
}

func TestDefaultRegisterAllocationErrors(t *testing.T) {
	b := newBuilder("t")
	if err := (DefaultRegisterAllocationPass{DepDist: 1}).Apply(b); err == nil {
		t.Error("allocation before building block should fail")
	}
	_ = b.Apply(SimpleBuildingBlockPass{LoopSize: 10})
	if err := (DefaultRegisterAllocationPass{DepDist: 0}).Apply(b); err == nil {
		t.Error("dependency distance 0 should be rejected")
	}
}

func TestUpdateInstructionAddressesRequiresStreams(t *testing.T) {
	b := newBuilder("t")
	_ = b.Apply(
		SimpleBuildingBlockPass{LoopSize: 11},
		SetInstructionTypeByProfilePass{Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.LD: 1})},
	)
	if err := (UpdateInstructionAddressesPass{}).Apply(b); err == nil {
		t.Error("address pass without streams should fail")
	}
}

func TestSynthesizerEndToEnd(t *testing.T) {
	space := knobs.DefaultSpace()
	cfg := space.MidConfig()
	syn := NewSynthesizer(Options{LoopSize: 200, Seed: 3})
	p, err := syn.Synthesize("e2e", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("generated program invalid: %v", err)
	}
	if p.StaticCount() != 200 {
		t.Errorf("static count %d, want 200", p.StaticCount())
	}
	if len(p.Streams) != 2 {
		t.Errorf("want 2 memory streams, got %d", len(p.Streams))
	}
	if len(p.Patterns) != 1 {
		t.Errorf("want 1 branch pattern, got %d", len(p.Patterns))
	}
	// The static mix should approximate the knob-implied fractions. With all
	// instruction knobs at the same value, each class fraction follows the
	// number of opcodes in that class.
	mix := staticMix(p)
	if mix[isa.ClassLoad] < 0.15 || mix[isa.ClassLoad] > 0.25 {
		t.Errorf("load fraction %.3f outside expectation", mix[isa.ClassLoad])
	}
	if p.Meta["generator"] == "" || p.Meta["reg_dependency_distance"] == "" {
		t.Error("missing generation metadata")
	}
}

// staticMix returns the fraction of p's static instructions in each class.
func staticMix(p *program.Program) [isa.NumClasses]float64 {
	var mix [isa.NumClasses]float64
	for _, in := range p.Instructions {
		mix[in.Class()] += 1 / float64(p.StaticCount())
	}
	return mix
}

func TestSynthesizerMixMatchesKnobWeights(t *testing.T) {
	space := knobs.DefaultSpace()
	cfg, err := space.ConfigFromValues(map[string]float64{
		"ADD": 10, "MUL": 1, "FADDD": 1, "FMULD": 1, "BEQ": 1, "BNE": 1,
		"LD": 4, "LW": 4, "SD": 2, "SW": 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn := NewSynthesizer(Options{LoopSize: 500, Seed: 1})
	p, err := syn.Synthesize("mix", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix := staticMix(p)
	total := 10.0 + 1 + 1 + 1 + 1 + 1 + 4 + 4 + 2 + 2
	wantInt := 11.0 / total
	wantLoad := 8.0 / total
	if math.Abs(mix[isa.ClassInteger]-wantInt) > 0.02 {
		t.Errorf("integer fraction %.3f, want ~%.3f", mix[isa.ClassInteger], wantInt)
	}
	if math.Abs(mix[isa.ClassLoad]-wantLoad) > 0.02 {
		t.Errorf("load fraction %.3f, want ~%.3f", mix[isa.ClassLoad], wantLoad)
	}
}

func TestSynthesizerDeterminism(t *testing.T) {
	space := knobs.DefaultSpace()
	cfg := space.RandomConfig(rand.New(rand.NewSource(9)))
	syn := NewSynthesizer(Options{LoopSize: 300, Seed: 5})
	a, err := syn.Synthesize("a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := syn.Synthesize("b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.StaticCount() != b.StaticCount() {
		t.Fatal("non-deterministic static count")
	}
	for i := range a.Instructions {
		if a.Instructions[i].Op != b.Instructions[i].Op ||
			a.Instructions[i].Dest != b.Instructions[i].Dest ||
			a.Instructions[i].Stream != b.Instructions[i].Stream {
			t.Fatalf("instruction %d differs between identical syntheses", i)
		}
	}
}

// TestSynthesizerConcurrentMatchesSerial synthesizes stress, duty-cycled
// and phase-rotated kernels from one Synthesizer on several goroutines at
// once and requires every program to equal its serial synthesis exactly:
// each call must work in its own pooled scratch, and no program returned
// earlier may share storage that a later synthesis overwrites.
func TestSynthesizerConcurrentMatchesSerial(t *testing.T) {
	syn := NewSynthesizer(Options{LoopSize: 200, Seed: 3})
	space := knobs.TransientStressSpace()
	rng := rand.New(rand.NewSource(11))
	sets := make([]knobs.Settings, 24)
	for i := range sets {
		sets[i] = space.RandomConfig(rng).Settings()
		sets[i].PhaseOffset = 17 * (i % 4)
	}
	serial := make([]*program.Program, len(sets))
	for i, set := range sets {
		p, err := syn.SynthesizeSettings("k", set)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = p
	}
	var wg sync.WaitGroup
	got := make([][]*program.Program, 4)
	for g := range got {
		got[g] = make([]*program.Program, len(sets))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, set := range sets {
				p, err := syn.SynthesizeSettings("k", set)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = p
			}
		}()
	}
	wg.Wait()
	// A fresh synthesizer's kernels are what every kernel above must still
	// equal: nothing synthesized after them may have overwritten them.
	fresh := NewSynthesizer(Options{LoopSize: 200, Seed: 3})
	want := make([]*program.Program, len(sets))
	for i, set := range sets {
		p, err := fresh.SynthesizeSettings("k", set)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	for i := range sets {
		if !reflect.DeepEqual(serial[i], want[i]) {
			t.Fatalf("kernel %d changed after later syntheses", i)
		}
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Fatalf("goroutine %d: kernel %d differs from its serial synthesis", g, i)
			}
		}
	}
}

func TestSynthesizerRejectsInvalidSettings(t *testing.T) {
	syn := NewSynthesizer(Options{})
	bad := aluSettings()
	bad.RegDist = 0
	if _, err := syn.SynthesizeSettings("bad", bad); err == nil {
		t.Error("invalid settings should be rejected")
	}
}

// Property: any configuration drawn from the default space synthesizes into a
// structurally valid program whose static size equals the requested loop
// size.
func TestPropertySynthesizeAlwaysValid(t *testing.T) {
	space := knobs.DefaultSpace()
	syn := NewSynthesizer(Options{LoopSize: 120, Seed: 11})
	rng := rand.New(rand.NewSource(1234))
	f := func(seed int64) bool {
		cfg := space.RandomConfig(rand.New(rand.NewSource(seed ^ rng.Int63())))
		p, err := syn.Synthesize("prop", cfg)
		if err != nil {
			return false
		}
		return p.Validate() == nil && p.StaticCount() == 120
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBuilderAppliedPasses checks that Apply runs every pass it is given:
// the building block exists and the register-initialization policy is
// recorded.
func TestBuilderAppliedPasses(t *testing.T) {
	b := newBuilder("t")
	if err := b.Apply(SimpleBuildingBlockPass{LoopSize: 5}, InitializeRegistersPass{}); err != nil {
		t.Fatal(err)
	}
	if got := b.Program().StaticCount(); got != 5 {
		t.Errorf("building block has %d instructions, want 5", got)
	}
	if b.Program().Meta["register_init"] != "random" {
		t.Error("register init policy not recorded")
	}
}

func TestTemporalHotRatio(t *testing.T) {
	if temporalHotRatio(0) != 0 || temporalHotRatio(1) != 0 {
		t.Error("temp1<=1 should give hot ratio 0")
	}
	if temporalHotRatio(100000) != temporalHotRatio(512) {
		t.Error("temp1 should clamp at 512")
	}
	if temporalHotRatio(512) <= temporalHotRatio(16) {
		t.Error("hot ratio should grow with temp1")
	}
	if temporalHotRatio(512) >= 1 {
		t.Error("hot ratio must stay below 1")
	}
}

func TestProgramValidatesAfterFullPipeline(t *testing.T) {
	// Stress-style configuration: instruction-only space.
	space := knobs.InstructionOnlySpace()
	cfg := space.MidConfig()
	syn := NewSynthesizer(Options{LoopSize: 80, Seed: 2})
	p, err := syn.Synthesize("stress", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if got := p.Instructions[len(p.Instructions)-1]; !got.Op.IsBranch() {
		t.Error("generated program does not end with loop branch")
	}
	_ = program.NoStream // keep the import meaningful if assertions change
}
