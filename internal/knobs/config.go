package knobs

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"micrograd/internal/isa"
)

// Config is one point in a knob Space: a vector of indices, one per knob,
// each selecting a value from that knob's discrete value list. Config values
// are immutable from the caller's perspective — mutating operations return a
// modified copy — so tuners can freely keep references to past
// configurations (epoch histories, GA populations) without aliasing bugs.
type Config struct {
	space *Space
	idx   []int
	// key is the canonical memo key, built once at construction so cache
	// lookups (evaluation memo, synthesis memo) never re-serialize the
	// index vector.
	key string
}

// Space returns the space the configuration belongs to.
func (c Config) Space() *Space { return c.space }

// Len returns the number of knobs.
func (c Config) Len() int { return len(c.idx) }

// IsZero reports whether the Config is the zero value (not attached to any
// space).
func (c Config) IsZero() bool { return c.space == nil }

// Index returns the index selected for knob i.
func (c Config) Index(i int) int { return c.idx[i] }

// Indices returns a copy of the full index vector.
func (c Config) Indices() []int {
	out := make([]int, len(c.idx))
	copy(out, c.idx)
	return out
}

// Value returns the concrete value selected for knob i.
func (c Config) Value(i int) float64 {
	return c.space.defs[i].Values[c.idx[i]]
}

// ValueByName returns the concrete value of the named knob and whether the
// knob exists in the space.
func (c Config) ValueByName(name string) (float64, bool) {
	i, ok := c.space.byName[name]
	if !ok {
		return 0, false
	}
	return c.Value(i), true
}

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	out := Config{space: c.space, idx: make([]int, len(c.idx)), key: c.key}
	copy(out.idx, c.idx)
	return out
}

// WithIndex returns a copy of c with knob i set to index v (clamped).
func (c Config) WithIndex(i, v int) Config {
	out := c.Clone()
	out.idx[i] = c.space.defs[i].Clamp(v)
	return out.keyed()
}

// Step returns a copy of c with knob i moved by delta index positions
// (clamped to the knob's range).
func (c Config) Step(i, delta int) Config {
	return c.WithIndex(i, c.idx[i]+delta)
}

// Equal reports whether two configurations select identical indices. Configs
// from different spaces are never equal.
func (c Config) Equal(other Config) bool {
	if c.space != other.space || len(c.idx) != len(other.idx) {
		return false
	}
	for i := range c.idx {
		if c.idx[i] != other.idx[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key uniquely identifying the configuration
// within its space. Useful for memoizing evaluation results. The key is
// canonicalized once at construction; Key only falls back to building it for
// zero-value configurations.
func (c Config) Key() string {
	if c.key != "" || len(c.idx) == 0 {
		return c.key
	}
	return buildKey(c.idx)
}

// keyed returns the configuration with its canonical key refreshed from the
// current index vector. Every constructor and mutating copy ends with it.
func (c Config) keyed() Config {
	c.key = buildKey(c.idx)
	return c
}

// buildKey serializes an index vector as the canonical comma-separated key.
func buildKey(idx []int) string {
	var b strings.Builder
	b.Grow(3 * len(idx))
	for i, v := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// String renders the configuration as "NAME=value" pairs in knob order.
func (c Config) String() string {
	if c.IsZero() {
		return "<zero config>"
	}
	parts := make([]string, len(c.idx))
	for i, d := range c.space.defs {
		parts[i] = fmt.Sprintf("%s=%g", d.Name, d.Values[c.idx[i]])
	}
	return strings.Join(parts, " ")
}

// Settings is the concrete, back-end-facing interpretation of a Config: the
// inputs the Microprobe-like synthesizer needs to build a test case. It is
// the bridge between the abstract workload model and code generation.
type Settings struct {
	// InstrWeights maps each profiled opcode to its relative weight in the
	// instruction profile (weights need not sum to anything in particular;
	// the synthesizer normalizes them).
	InstrWeights map[isa.Opcode]float64
	// RegDist is the register dependency distance: a producing instruction's
	// result is consumed RegDist instructions later (larger = more ILP).
	RegDist int
	// MemFootprintKB is the memory working-set size in KiB.
	MemFootprintKB int
	// MemStrideB is the access stride in bytes.
	MemStrideB int
	// MemTemp1 is the temporal-locality burst length (how many accesses
	// repeat the same addresses).
	MemTemp1 int
	// MemTemp2 is the temporal-locality period (how often the repeats recur).
	MemTemp2 int
	// BranchRandomRatio is the fraction of conditional branches whose
	// direction is randomized (1.0 = fully random, hard to predict).
	BranchRandomRatio float64
	// DutyCycle is the active fraction of each activity burst: 1.0 (or 0,
	// meaning "not configured") keeps the whole kernel busy, smaller values
	// idle (NOP) the tail of every burst period, creating an oscillating
	// power draw.
	DutyCycle float64
	// BurstLen is the activity burst period in static instructions. It only
	// matters when DutyCycle is in (0,1).
	BurstLen int
	// PhaseOffset rotates the kernel's loop body (and with it the burst
	// schedule) by this many static instructions. The co-run platform sets it
	// per core from the PHASE_OFFSET knobs to phase-shift the cores' activity
	// bursts against each other; 0 leaves the kernel unrotated.
	PhaseOffset int
}

// defaultScalars are the settings a knob absent from the space being tuned
// keeps (e.g. the instruction-only stress space leaves the memory system at
// a modest, well-behaved default). It carries no instruction profile, so
// Config.Settings allocates only the profile it fills.
var defaultScalars = Settings{
	RegDist:           4,
	MemFootprintKB:    16,
	MemStrideB:        8,
	MemTemp1:          16,
	MemTemp2:          4,
	BranchRandomRatio: 0.1,
	DutyCycle:         1,
	BurstLen:          64,
}

// Settings interprets the configuration into back-end settings. Knobs not
// present in the space keep their defaultScalars value.
func (c Config) Settings() Settings {
	instr := 0
	for _, d := range c.space.defs {
		if d.Kind == KindInstrFraction {
			instr++
		}
	}
	s := defaultScalars
	s.InstrWeights = make(map[isa.Opcode]float64, max(instr, 1))
	for i, d := range c.space.defs {
		v := d.Values[c.idx[i]]
		switch d.Kind {
		case KindInstrFraction:
			s.InstrWeights[d.Opcode] = v
		case KindRegDist:
			s.RegDist = int(v)
		case KindMemSize:
			s.MemFootprintKB = int(v)
		case KindMemStride:
			s.MemStrideB = int(v)
		case KindMemTemp1:
			s.MemTemp1 = int(v)
		case KindMemTemp2:
			s.MemTemp2 = int(v)
		case KindBranchPattern:
			s.BranchRandomRatio = v
		case KindDutyCycle:
			s.DutyCycle = v
		case KindBurstLen:
			s.BurstLen = int(v)
		case KindPhaseOffset, KindFreqGHz:
			// Per-core knobs: the co-run platform reads PHASE_OFFSET_<i> /
			// FREQ_GHZ_<i> by name — the former sets PhaseOffset on each
			// core's copy of the settings, the latter overrides the core's
			// clock at evaluation time and never reaches the synthesizer.
		}
	}
	if instr == 0 {
		s.InstrWeights[isa.ADD] = 1
	}
	return s
}

// appendSortedOpcodes appends the profile's opcodes to ops in ascending
// order.
func (s Settings) appendSortedOpcodes(ops []isa.Opcode) []isa.Opcode {
	for op := range s.InstrWeights {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	return ops
}

// CanonicalKey serializes the settings into a deterministic string: two
// settings produce the same key exactly when they synthesize the same kernel.
// It deliberately covers every synthesis input (and nothing else), so
// evaluation-time parameters — seeds, instruction budgets, clock overrides —
// never fragment a synthesis memo keyed on it. The format is
// "<op>:<weight>," per profiled opcode in ascending order, then
// "|rd=..|fp=..|st=..|t1=..|t2=..|br=..|dc=..|bl=..|po=..", floats in
// shortest 'g' form; building it in one stack buffer leaves the returned
// string its only allocation.
func (s Settings) CanonicalKey() string {
	var opsBuf [isa.NumOpcodes]isa.Opcode
	var buf [256]byte
	b := buf[:0]
	for _, op := range s.appendSortedOpcodes(opsBuf[:0]) {
		b = strconv.AppendInt(b, int64(op), 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, s.InstrWeights[op], 'g', -1, 64)
		b = append(b, ',')
	}
	b = strconv.AppendInt(append(b, "|rd="...), int64(s.RegDist), 10)
	b = strconv.AppendInt(append(b, "|fp="...), int64(s.MemFootprintKB), 10)
	b = strconv.AppendInt(append(b, "|st="...), int64(s.MemStrideB), 10)
	b = strconv.AppendInt(append(b, "|t1="...), int64(s.MemTemp1), 10)
	b = strconv.AppendInt(append(b, "|t2="...), int64(s.MemTemp2), 10)
	b = strconv.AppendFloat(append(b, "|br="...), s.BranchRandomRatio, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, "|dc="...), s.DutyCycle, 'g', -1, 64)
	b = strconv.AppendInt(append(b, "|bl="...), int64(s.BurstLen), 10)
	b = strconv.AppendInt(append(b, "|po="...), int64(s.PhaseOffset), 10)
	return string(b)
}

// Validate checks the settings for internal consistency.
func (s Settings) Validate() error {
	if len(s.InstrWeights) == 0 {
		return fmt.Errorf("knobs: settings have empty instruction profile")
	}
	for op, w := range s.InstrWeights {
		if !op.Valid() {
			return fmt.Errorf("knobs: settings reference invalid opcode %d", op)
		}
		if w < 0 {
			return fmt.Errorf("knobs: negative weight %v for opcode %v", w, op)
		}
	}
	if s.RegDist < 1 {
		return fmt.Errorf("knobs: register dependency distance %d < 1", s.RegDist)
	}
	if s.MemFootprintKB < 1 {
		return fmt.Errorf("knobs: memory footprint %d KiB < 1", s.MemFootprintKB)
	}
	if s.MemStrideB < 1 {
		return fmt.Errorf("knobs: memory stride %d B < 1", s.MemStrideB)
	}
	if s.MemTemp1 < 1 || s.MemTemp2 < 1 {
		return fmt.Errorf("knobs: temporal locality parameters must be >= 1")
	}
	if s.BranchRandomRatio < 0 || s.BranchRandomRatio > 1 {
		return fmt.Errorf("knobs: branch random ratio %v outside [0,1]", s.BranchRandomRatio)
	}
	if s.DutyCycle < 0 || s.DutyCycle > 1 {
		return fmt.Errorf("knobs: duty cycle %v outside [0,1]", s.DutyCycle)
	}
	if s.BurstLen < 0 {
		return fmt.Errorf("knobs: negative burst length %d", s.BurstLen)
	}
	if s.PhaseOffset < 0 {
		return fmt.Errorf("knobs: negative phase offset %d", s.PhaseOffset)
	}
	if s.DutyCycle > 0 && s.DutyCycle < 1 && s.BurstLen < 2 {
		return fmt.Errorf("knobs: duty cycling needs a burst length >= 2, have %d", s.BurstLen)
	}
	return nil
}
