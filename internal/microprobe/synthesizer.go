package microprobe

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync"

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
// passes of the paper's Listing 2. It is the "Microprobe scripting
// interface" of the Go reproduction: the tuning mechanism hands it a knob
// configuration and receives a runnable program. It is safe for concurrent
// use.
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
// steps' scratch and the generator re-seeded per synthesis. Syntheses run
// concurrently (workers share one CachingSynthesizer, which synthesizes
// outside its lock), so each call takes its own scratch from scratchPool.
type synthScratch struct {
	b   builder
	rng *rand.Rand
}

var scratchPool = sync.Pool{New: func() any {
	return &synthScratch{rng: rand.New(rand.NewSource(0))}
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

	// The passes of Listing 2, in order. ReserveRegistersPass is fixed to
	// isa.DefaultReserved, which the allocator's pools leave out, and
	// InitializeRegistersPass(value=RNDINT) is the "random" policy the
	// metadata records.
	if err := b.buildingBlock(name, s.opts.LoopSize); err != nil {
		return nil, fmt.Errorf("microprobe: %w", err)
	}
	b.setInstructionTypes(&set.Profile)
	b.prog.Meta["register_init"] = "random"
	b.randomizeBranches(set.BranchRandomRatio)
	b.memoryStreams(&set)
	b.allocateRegisters(set.RegDist)
	if set.DutyCycle > 0 && set.DutyCycle < 1 {
		b.dutyCycle(set.DutyCycle, set.BurstLen)
	}
	if set.PhaseOffset > 0 {
		b.rotate(set.PhaseOffset)
	}
	if err := b.updateAddresses(); err != nil {
		return nil, fmt.Errorf("microprobe: %w", err)
	}

	p := b.prog
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
// but with two or more cores the passes run once, for the shape, and each
// core's kernel derives from it (see deriveCore).
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
// miss runs every pass for its core; several derive from one run for their
// shape. With memo set, every kernel built is memoized.
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
// SynthesizeSettings(name, set) returns, built without re-running the
// passes. base is the shape's unrotated kernel, or nil when no core has
// built it yet; deriveCore then synthesizes it with PhaseOffset 0, and a
// core at offset 0 gets that base itself. Any other core's kernel is a copy
// of base under name, rotated and with its addresses updated (the rotate
// and updateAddresses steps). It returns the core's kernel and the base for
// the next core of the same shape.
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
	sc.b.rotate(set.PhaseOffset)
	if err := sc.b.updateAddresses(); err != nil {
		return nil, base, fmt.Errorf("microprobe: %w", err)
	}
	return p, base, nil
}

// temporalHotRatio maps the MEM_TEMP1 knob (1..512, "how many accesses
// repeat") to the fraction of memory accesses routed to the small hot
// stream. The mapping is logarithmic because the knob's value list is.
func temporalHotRatio(temp1 int) float64 {
	if temp1 > 512 {
		temp1 = 512
	}
	log2 := 0
	for v := temp1; v > 1; v >>= 1 {
		log2++
	}
	return float64(log2) / 12.0 // 0 .. 0.75
}
