package microprobe

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// newBlock returns a builder holding a fresh building block of loopSize
// instructions, the first step of every synthesis.
func newBlock(t *testing.T, loopSize int) *builder {
	t.Helper()
	b := new(builder)
	if err := b.buildingBlock("t", loopSize); err != nil {
		t.Fatal(err)
	}
	return b
}

// rejects requires SynthesizeSettings to reject aluSettings changed by
// mutate, with an error that names want.
func rejects(t *testing.T, what, want string, mutate func(*knobs.Settings)) {
	t.Helper()
	set := aluSettings()
	mutate(&set)
	_, err := NewSynthesizer(Options{LoopSize: 40}).SynthesizeSettings("bad", set)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %v, want one naming %q", what, err, want)
	}
}

func TestSimpleBuildingBlockPass(t *testing.T) {
	p := newBlock(t, 50).prog
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
	// Too-small loop must fail.
	if err := new(builder).buildingBlock("t2", MinLoopSize-1); err == nil {
		t.Error("loop size 1 should be rejected")
	}
	if _, err := NewSynthesizer(Options{LoopSize: MinLoopSize - 1}).SynthesizeSettings("t3", aluSettings()); err == nil {
		t.Error("a synthesizer of loop size 1 should fail")
	}
	if p, err := NewSynthesizer(Options{LoopSize: MinLoopSize}).SynthesizeSettings("t4", aluSettings()); err != nil || p.StaticCount() != MinLoopSize {
		t.Errorf("loop size %d: %v", MinLoopSize, err)
	}
}

// TestReserveRegistersPass checks the register pools the allocation step
// draws from: nothing ReserveRegistersPass reserves, nor the zero
// register, and every other register.
func TestReserveRegistersPass(t *testing.T) {
	for _, r := range append(isa.DefaultReserved(), isa.RegZero) {
		if slices.Contains(intPool, r) || slices.Contains(fpPool, r) {
			t.Errorf("reserved register %v is in a pool", r)
		}
	}
	if !slices.Contains(intPool, isa.IntReg(20)) || !slices.Contains(fpPool, isa.FPReg(0)) {
		t.Error("unreserved register missing from the pools")
	}
	reserved := len(isa.DefaultReserved())
	if len(intPool) != isa.NumIntRegs-reserved || len(fpPool) != isa.NumFPRegs {
		t.Errorf("pools hold %d integer and %d floating-point registers, want %d and %d",
			len(intPool), len(fpPool), isa.NumIntRegs-reserved, isa.NumFPRegs)
	}
}

func TestSetInstructionTypeByProfilePass(t *testing.T) {
	b := newBlock(t, 101)
	profile := knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 5, isa.LD: 3, isa.SD: 2})
	b.setInstructionTypes(&profile)
	counts := map[isa.Opcode]int{}
	for _, in := range b.prog.Instructions[:100] {
		counts[in.Op]++
	}
	if counts[isa.ADD] != 50 || counts[isa.LD] != 30 || counts[isa.SD] != 20 {
		t.Errorf("profile apportionment wrong: %v", counts)
	}
	// Placement should interleave: no long runs of the same opcode for a
	// balanced profile.
	maxRun, run := 0, 0
	var prev isa.Opcode = isa.NOP
	for _, in := range b.prog.Instructions[:100] {
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

// TestSetInstructionTypeByProfileErrors checks that synthesis rejects the
// profiles the profile step cannot apportion, which settings validation
// catches before any step runs.
func TestSetInstructionTypeByProfileErrors(t *testing.T) {
	rejects(t, "empty profile", "empty instruction profile", func(s *knobs.Settings) { s.Profile = knobs.Profile{} })
	rejects(t, "negative weight", "weight", func(s *knobs.Settings) {
		s.Profile = knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: -1})
	})
	rejects(t, "zero total weight", "zero total weight", func(s *knobs.Settings) {
		s.Profile = knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 0})
	})
}

func TestRandomizeByTypePass(t *testing.T) {
	b := newBlock(t, 51)
	profile := knobs.NewProfile(map[isa.Opcode]float64{isa.BEQ: 1, isa.ADD: 1})
	b.setInstructionTypes(&profile)
	b.randomizeBranches(0.4)
	p := b.prog
	if len(p.Patterns) != 1 || p.Patterns[0].RandomRatio != 0.4 {
		t.Fatalf("pattern not created correctly: %+v", p.Patterns)
	}
	for i, in := range p.Instructions[:50] {
		if in.IsCondBranch() && in.Pattern != 0 {
			t.Errorf("branch %d not assigned to pattern", i)
		}
	}
	rejects(t, "probability > 1", "branch random ratio", func(s *knobs.Settings) { s.BranchRandomRatio = 1.5 })
}

func TestGenericMemoryStreamsPass(t *testing.T) {
	b := newBlock(t, 101)
	profile := knobs.NewProfile(map[isa.Opcode]float64{isa.LD: 1, isa.SD: 1})
	b.setInstructionTypes(&profile)
	set := aluSettings()
	set.MemFootprintKB, set.MemStrideB, set.MemTemp1 = 64, 64, 512 // a hot share of 0.75
	b.memoryStreams(&set)
	p := b.prog
	if len(p.Streams) != 2 {
		t.Fatalf("want 2 streams, got %d", len(p.Streams))
	}
	hot, cold := p.Streams[0], p.Streams[1]
	if hot.Base+uint64(hot.FootprintBytes) > cold.Base {
		t.Error("streams overlap")
	}
	if hot.FootprintBytes != hotStreamBytes || cold.FootprintBytes != 64*1024 || cold.StrideBytes != 64 || cold.Temp1 != 512 {
		t.Errorf("streams do not follow the settings: %+v", p.Streams)
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
	// A footprint below the hot stream's caps the hot stream at it.
	set.MemFootprintKB = 2
	b.memoryStreams(&set)
	if got := b.prog.Streams[0].FootprintBytes; got != 2048 {
		t.Errorf("hot stream footprint %d under a 2 KiB footprint, want 2048", got)
	}
}

// TestGenericMemoryStreamsErrors checks that synthesis rejects the stream
// shapes the memory step cannot lay out, which settings validation catches
// before any step runs.
func TestGenericMemoryStreamsErrors(t *testing.T) {
	rejects(t, "zero footprint", "memory footprint", func(s *knobs.Settings) { s.MemFootprintKB = 0 })
	rejects(t, "zero stride", "memory stride", func(s *knobs.Settings) { s.MemStrideB = 0 })
}

func TestDefaultRegisterAllocationDependencyDistance(t *testing.T) {
	for _, dd := range []int{1, 2, 4, 8} {
		b := newBlock(t, 41)
		profile := knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 1})
		b.setInstructionTypes(&profile)
		b.allocateRegisters(dd)
		// For an all-ADD body, instruction i should read the register written
		// by instruction i-dd (within the steady-state part of the loop).
		instrs := b.prog.Instructions
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
	rejects(t, "dependency distance 0", "dependency distance", func(s *knobs.Settings) { s.RegDist = 0 })
}

// TestUpdateInstructionAddressesStridesStreams checks the address step:
// each memory instruction's offset is its stream's stride times the
// accesses to that stream before it, wrapped at the stream's footprint.
func TestUpdateInstructionAddressesStridesStreams(t *testing.T) {
	set := aluSettings()
	set.Profile = knobs.NewProfile(map[isa.Opcode]float64{isa.LD: 3, isa.SD: 1, isa.ADD: 1})
	set.MemFootprintKB, set.MemStrideB, set.MemTemp1 = 2, 40, 16
	p, err := NewSynthesizer(Options{LoopSize: 300}).SynthesizeSettings("addrs", set)
	if err != nil {
		t.Fatal(err)
	}
	var seen [2]int
	for i, in := range p.Instructions {
		if !in.IsMemory() {
			continue
		}
		s := p.Streams[in.Stream]
		if want := int64(seen[in.Stream] * s.StrideBytes % s.FootprintBytes); in.Imm != want {
			t.Fatalf("instruction %d on stream %d: offset %d, want %d", i, in.Stream, in.Imm, want)
		}
		seen[in.Stream]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("accesses per stream %v, want both streams used", seen)
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

// TestBuilderAppliedPasses checks that a synthesis runs every step: the
// building block exists, the register-initialization policy and every
// step's metadata are recorded.
func TestBuilderAppliedPasses(t *testing.T) {
	p, err := NewSynthesizer(Options{LoopSize: 5}).SynthesizeSettings("t", aluSettings())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.StaticCount(); got != 5 {
		t.Errorf("building block has %d instructions, want 5", got)
	}
	if p.Meta["register_init"] != "random" {
		t.Error("register init policy not recorded")
	}
	if len(p.Streams) != 2 || len(p.Patterns) != 1 || p.Meta["reg_dependency_distance"] == "" {
		t.Errorf("a step did not run: %d streams, %d patterns, meta %v", len(p.Streams), len(p.Patterns), p.Meta)
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
