package microprobe

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/program"
)

// DefaultLoopSize is the number of static instructions in a generated test
// case. The paper's test cases are "roughly 500 static instructions in an
// endless loop".
const DefaultLoopSize = 500

// hotStreamBytes is the footprint of the small "hot" memory stream that
// models the temporally-local portion of the access stream.
const hotStreamBytes = 4096

// Options configures the Synthesizer.
type Options struct {
	// LoopSize is the static size of the generated loop (including the
	// loop-closing branch). Zero means DefaultLoopSize.
	LoopSize int
	// Seed drives the deterministic pseudo-random choices of generation.
	Seed int64
}

// Normalized returns the options with defaults filled in. Synthesizers with
// equal normalized options generate identical programs.
func (o Options) Normalized() Options {
	if o.LoopSize == 0 {
		o.LoopSize = DefaultLoopSize
	}
	return o
}

// Synthesizer turns knob settings into synthetic test cases by running the
// standard MicroGrad pass pipeline (the paper's Listing 2). It is the
// "Microprobe scripting interface" of the Go reproduction: the tuning
// mechanism hands it a knob configuration and receives a runnable program.
// It is safe for concurrent use.
type Synthesizer struct {
	opts Options
	// loopSize is opts.LoopSize as the program metadata records it.
	loopSize string
}

// NewSynthesizer returns a Synthesizer with the given options.
func NewSynthesizer(opts Options) *Synthesizer {
	opts = opts.Normalized()
	return &Synthesizer{opts: opts, loopSize: strconv.Itoa(opts.LoopSize)}
}

// Options returns the (normalized) synthesis options.
func (s *Synthesizer) Options() Options { return s.opts }

// Synthesize generates the test case for a knob configuration.
func (s *Synthesizer) Synthesize(name string, cfg knobs.Config) (*program.Program, error) {
	return s.SynthesizeSettings(name, cfg.Settings())
}

// synthScratch is the working memory of one synthesis: the builder with its
// pass scratch, the generator re-seeded per synthesis, and the standard
// pipeline's passes. The passes live here so that listing them as Pass
// values stores pointers instead of copying each pass to the heap.
// Syntheses run concurrently (workers share one CachingSynthesizer, which
// synthesizes outside its lock), so each call takes its own scratch from
// scratchPool.
type synthScratch struct {
	b       Builder
	rng     *rand.Rand
	streams [2]StreamSpec
	passes  []Pass

	block    SimpleBuildingBlockPass
	reserve  ReserveRegistersPass
	profile  SetInstructionTypeByProfilePass
	init     InitializeRegistersPass
	branches RandomizeByTypePass
	memory   GenericMemoryStreamsPass
	regAlloc DefaultRegisterAllocationPass
	duty     DutyCyclePass
	rotate   PhaseRotatePass
	addrs    UpdateInstructionAddressesPass
}

var scratchPool = sync.Pool{New: func() any {
	return &synthScratch{
		rng:     rand.New(rand.NewSource(0)),
		reserve: ReserveRegistersPass{Regs: isa.DefaultReserved()},
		init:    InitializeRegistersPass{Policy: "random"},
	}
}}

// SynthesizeSettings generates the test case for explicit back-end settings.
// This entry point is used by the reference-workload models, which describe
// applications with more detail than the knob space exposes.
func (s *Synthesizer) SynthesizeSettings(name string, set knobs.Settings) (*program.Program, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("microprobe: invalid settings: %w", err)
	}
	sc := scratchPool.Get().(*synthScratch)
	defer func() {
		// Drop the references into the caller's data before pooling.
		sc.b.prog = nil
		scratchPool.Put(sc)
	}()
	sc.rng.Seed(s.opts.Seed)
	b := &sc.b
	b.reset(name)

	// Two memory streams, as in the paper's Listing 2: a small "hot" stream
	// capturing temporal re-use and a "cold" stream with the configured
	// footprint and stride. The hot fraction grows with the MEM_TEMP1 knob
	// (how many accesses repeat).
	hotRatio := temporalHotRatio(set.MemTemp1)
	coldFootprint := set.MemFootprintKB * 1024
	hotFootprint := minInt(hotStreamBytes, coldFootprint)
	sc.streams = [2]StreamSpec{
		{FootprintBytes: hotFootprint, Ratio: hotRatio, StrideBytes: 8, Temp1: 1, Temp2: 1},
		{FootprintBytes: coldFootprint, Ratio: 1 - hotRatio, StrideBytes: set.MemStrideB, Temp1: set.MemTemp1, Temp2: set.MemTemp2},
	}

	sc.block.LoopSize = s.opts.LoopSize
	sc.profile.Profile = set.Profile
	sc.branches.Probability = set.BranchRandomRatio
	sc.memory.Streams = sc.streams[:]
	sc.regAlloc.DepDist = set.RegDist
	passes := append(sc.passes[:0], &sc.block, &sc.reserve, &sc.profile, &sc.init,
		&sc.branches, &sc.memory, &sc.regAlloc)
	if set.DutyCycle > 0 && set.DutyCycle < 1 {
		// After register allocation: the throttle chain lives on a reserved
		// register the allocator never touches.
		sc.duty = DutyCyclePass{Duty: set.DutyCycle, BurstLen: set.BurstLen}
		passes = append(passes, &sc.duty)
	}
	if set.PhaseOffset > 0 {
		// Last structural pass: rotating the finished body shifts the burst
		// schedule without disturbing any positional assignment.
		sc.rotate.OffsetInstrs = set.PhaseOffset
		passes = append(passes, &sc.rotate)
	}
	passes = append(passes, &sc.addrs)
	sc.passes = passes
	if err := b.Apply(passes...); err != nil {
		return nil, err
	}

	p := b.Program()
	p.Meta["generator"] = "micrograd/microprobe"
	p.Meta["loop_size"] = s.loopSize
	p.Meta["mem_footprint_kb"] = strconv.Itoa(set.MemFootprintKB)
	p.Meta["mem_stride_b"] = strconv.Itoa(set.MemStrideB)
	p.Meta["branch_random_ratio"] = strconv.FormatFloat(set.BranchRandomRatio, 'f', 3, 64)
	if set.DutyCycle > 0 && set.DutyCycle < 1 {
		p.Meta["duty_cycle"] = strconv.FormatFloat(set.DutyCycle, 'f', 2, 64)
		p.Meta["burst_len"] = strconv.Itoa(set.BurstLen)
	}
	if set.PhaseOffset > 0 {
		p.Meta["phase_offset"] = strconv.Itoa(set.PhaseOffset)
	}
	return p, nil
}

// SynthesizeCores fills progs, one entry per core, with the kernels of a
// co-run configuration: cfg's shared kernel shape, core i's kernel named
// names[i] and its burst schedule rotated by its PHASE_OFFSET_<i> knob.
// Core i's kernel is SynthesizeSettings(names[i], coreSettings(cfg, set, i)),
// but with two or more cores the pass pipeline runs once, for the shape,
// and each core's kernel derives from it (see deriveCore).
func (s *Synthesizer) SynthesizeCores(progs []*program.Program, names []string, cfg knobs.Config) error {
	clear(progs)
	return s.buildCores(progs, names, cfg, cfg.Settings(), len(progs), nil)
}

// coreSettings returns core i's settings in a co-run configuration cfg:
// the shared settings set, rotated by the core's PHASE_OFFSET_<i> knob.
func coreSettings(cfg knobs.Config, set knobs.Settings, i int) knobs.Settings {
	if off, ok := cfg.ValueByName(knobs.PhaseOffsetName(i)); ok {
		set.PhaseOffset = int(off)
	}
	return set
}

// buildCores synthesizes the nil entries of progs, misses in number, for
// the co-run configuration cfg whose shared settings are set. A single
// miss runs the whole pipeline for its core; several derive from one run
// for their shape. With memo set, every kernel built is memoized.
func (s *Synthesizer) buildCores(progs []*program.Program, names []string, cfg knobs.Config, set knobs.Settings, misses int, memo *CachingSynthesizer) error {
	var base *program.Program
	for i, p := range progs {
		if p != nil {
			continue
		}
		coreSet := coreSettings(cfg, set, i)
		var err error
		if misses == 1 {
			p, err = s.SynthesizeSettings(names[i], coreSet)
		} else {
			p, base, err = s.deriveCore(names[i], coreSet, base)
		}
		if err != nil {
			return fmt.Errorf("microprobe: synthesizing core %d kernel: %w", i, err)
		}
		if memo != nil {
			var buf [memoKeyBuf]byte
			memo.remember(memoKey(buf[:0], names[i], &coreSet), p)
		}
		progs[i] = p
	}
	return nil
}

// deriveCore generates one kernel of a co-run whose cores share one kernel
// shape and differ only in set.PhaseOffset: the kernel
// SynthesizeSettings(name, set) returns, built without re-running the pass
// pipeline. base is the shape's unrotated kernel, or nil when no core has
// built it yet; deriveCore then synthesizes it with PhaseOffset 0, and a
// core at offset 0 gets that base itself. Any other core's kernel is a copy
// of base under name with PhaseRotatePass and
// UpdateInstructionAddressesPass applied. It returns the core's kernel and
// the base for the next core of the same shape.
func (s *Synthesizer) deriveCore(name string, set knobs.Settings, base *program.Program) (*program.Program, *program.Program, error) {
	if err := set.Validate(); err != nil {
		return nil, base, fmt.Errorf("microprobe: invalid settings: %w", err)
	}
	if base == nil {
		shape := set
		shape.PhaseOffset = 0
		var err error
		if base, err = s.SynthesizeSettings(name, shape); err != nil {
			return nil, nil, err
		}
		if set.PhaseOffset == 0 {
			return base, base, nil
		}
	}
	p := &program.Program{
		Name:         name,
		Instructions: slices.Clone(base.Instructions),
		// A rotation reads streams and patterns but never writes them, so
		// every core shares the base's; the full slice expressions keep
		// an append from writing into the base.
		Streams:  base.Streams[:len(base.Streams):len(base.Streams)],
		Patterns: base.Patterns[:len(base.Patterns):len(base.Patterns)],
		Notes:    slices.Clone(base.Notes),
		CodeBase: base.CodeBase,
		DataBase: base.DataBase,
		Meta:     maps.Clone(base.Meta),
	}
	if set.PhaseOffset > 0 {
		p.Meta["phase_offset"] = strconv.Itoa(set.PhaseOffset)
	}
	sc := scratchPool.Get().(*synthScratch)
	defer func() {
		sc.b.prog = nil
		scratchPool.Put(sc)
	}()
	sc.b.prog = p
	sc.rotate.OffsetInstrs = set.PhaseOffset
	if err := sc.b.Apply(&sc.rotate, &sc.addrs); err != nil {
		return nil, base, err
	}
	return p, base, nil
}

// temporalHotRatio maps the MEM_TEMP1 knob (1..512, "how many accesses
// repeat") to the fraction of memory accesses routed to the small hot
// stream. The mapping is logarithmic because the knob's value list is.
func temporalHotRatio(temp1 int) float64 {
	if temp1 < 1 {
		temp1 = 1
	}
	if temp1 > 512 {
		temp1 = 512
	}
	log2 := 0
	for v := temp1; v > 1; v >>= 1 {
		log2++
	}
	return float64(log2) / 12.0 // 0 .. 0.75
}
