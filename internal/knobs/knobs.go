// Package knobs implements the abstract workload model of MicroGrad: a small
// vector of "workload generation knobs" (the paper's Listing 1) that the
// tuning mechanism manipulates and the code-generation back-end consumes.
//
// Each knob owns an ordered list of discrete values. A Config is a vector of
// indices into those lists; both the gradient-descent and genetic-algorithm
// tuners operate purely on index vectors, which keeps the representation
// identical across tuning mechanisms (a requirement for the paper's GD-vs-GA
// comparisons).
package knobs

import (
	"fmt"
	"sort"

	"micrograd/internal/isa"
)

// Kind classifies what aspect of the generated workload a knob controls.
type Kind uint8

// Knob kinds.
const (
	KindInstrFraction Kind = iota // relative weight of one opcode in the instruction profile
	KindRegDist                   // register dependency distance
	KindMemSize                   // memory footprint (KiB)
	KindMemStride                 // memory access stride (bytes)
	KindMemTemp1                  // temporal locality: how many accesses repeat
	KindMemTemp2                  // temporal locality: how often accesses repeat
	KindBranchPattern             // fraction of randomized branch directions
	KindDutyCycle                 // fraction of each activity burst that executes real work
	KindBurstLen                  // activity burst period in static instructions
	KindPhaseOffset               // rotation of the kernel's burst schedule in static instructions
	KindFreqGHz                   // one co-running core's clock frequency in GHz (DVFS)
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindInstrFraction:
		return "instr-fraction"
	case KindRegDist:
		return "reg-dist"
	case KindMemSize:
		return "mem-size"
	case KindMemStride:
		return "mem-stride"
	case KindMemTemp1:
		return "mem-temp1"
	case KindMemTemp2:
		return "mem-temp2"
	case KindBranchPattern:
		return "branch-pattern"
	case KindDutyCycle:
		return "duty-cycle"
	case KindBurstLen:
		return "burst-len"
	case KindPhaseOffset:
		return "phase-offset"
	case KindFreqGHz:
		return "freq-ghz"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Def describes a single knob: its name, the aspect it controls, and the
// ordered list of values it may take.
type Def struct {
	// Name is the knob's identifier as it appears in configuration files
	// and reports (e.g. "ADD", "REG_DIST", "MEM_SIZE").
	Name string
	// Kind classifies the knob.
	Kind Kind
	// Values is the ordered list of discrete values the knob may take.
	Values []float64
	// Opcode is set for KindInstrFraction knobs and names the opcode whose
	// profile weight the knob controls.
	Opcode isa.Opcode
}

// NumValues returns the number of discrete values the knob may take.
func (d Def) NumValues() int { return len(d.Values) }

// Clamp clamps an index into the valid range [0, NumValues).
func (d Def) Clamp(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(d.Values) {
		return len(d.Values) - 1
	}
	return i
}

// NearestIndex returns the index of the value in d closest to v.
func (d Def) NearestIndex(v float64) int {
	best, bestDist := 0, -1.0
	for i, val := range d.Values {
		dist := val - v
		if dist < 0 {
			dist = -dist
		}
		if bestDist < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// Validate checks that the definition is well-formed: non-empty name,
// at least two values, strictly increasing value list.
func (d Def) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("knobs: knob with empty name")
	}
	if len(d.Values) < 2 {
		return fmt.Errorf("knobs: knob %q needs at least 2 values, has %d", d.Name, len(d.Values))
	}
	if !sort.Float64sAreSorted(d.Values) {
		return fmt.Errorf("knobs: knob %q values are not sorted", d.Name)
	}
	for i := 1; i < len(d.Values); i++ {
		//lint:allow floateq exact duplicate detection over the user-provided sorted level list
		if d.Values[i] == d.Values[i-1] {
			return fmt.Errorf("knobs: knob %q has duplicate value %v", d.Name, d.Values[i])
		}
	}
	if d.Kind == KindInstrFraction && !d.Opcode.Valid() {
		return fmt.Errorf("knobs: instruction knob %q has invalid opcode", d.Name)
	}
	return nil
}

// Standard knob value ranges, straight from the paper's Listing 1.
var (
	instrFractionValues = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	regDistValues       = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	memSizeValues       = []float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048} // KiB
	memStrideValues     = []float64{8, 12, 16, 20, 24, 32, 40, 48, 56, 64}          // bytes
	memTemp1Values      = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	memTemp2Values      = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	branchPatternValues = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	dutyCycleValues     = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	burstLenValues      = []float64{16, 24, 32, 48, 64, 96, 128, 192, 256, 384} // instructions
	// Phase offsets rotate a core's burst schedule; the range covers the
	// largest BURST_LEN period so any inter-core phase relationship is
	// reachable.
	phaseOffsetValues = []float64{0, 32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352} // instructions
	// The spatial stress space refines the phase grid to 16-instruction
	// steps (a superset of phaseOffsetValues): hammering one PDN region
	// needs the co-located cores phase-aligned more precisely than the
	// coarse chip-wide grid resolves, and the finer grid is what lets the
	// spatially-targeted viruses beat the spatially-oblivious ones.
	spatialPhaseOffsetValues = []float64{
		0, 16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176,
		192, 208, 224, 240, 256, 272, 288, 304, 320, 336, 352, 368,
	} // instructions
	// Frequency values span the DVFS operating points of the built-in 2 GHz
	// cores: deep-throttle bins for big.LITTLE pairings up to a 2.4 GHz
	// boost bin, so a tuner can trade per-core power against time-domain
	// burst alignment.
	freqGHzValues = []float64{1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4} // GHz
)

// Canonical knob names.
const (
	NameRegDist       = "REG_DIST"
	NameMemSize       = "MEM_SIZE"
	NameMemStride     = "MEM_STRIDE"
	NameMemTemp1      = "MEM_TEMP1"
	NameMemTemp2      = "MEM_TEMP2"
	NameBranchPattern = "B_PATTERN"
	NameDutyCycle     = "DUTY_CYCLE"
	NameBurstLen      = "BURST_LEN"
	// NamePhaseOffset is the prefix of the per-core phase knobs of a co-run
	// space; the knob for core i is PhaseOffsetName(i).
	NamePhaseOffset = "PHASE_OFFSET"
	// NameFreqGHz is the prefix of the per-core clock knobs of a DVFS co-run
	// space; the knob for core i is FreqGHzName(i).
	NameFreqGHz = "FREQ_GHZ"
)

// PhaseOffsetName returns the name of the phase-offset knob of one co-running
// core ("PHASE_OFFSET_0", "PHASE_OFFSET_1", ...).
func PhaseOffsetName(core int) string { return phaseOffsetNames.name(core) }

// FreqGHzName returns the name of the clock-frequency knob of one co-running
// core ("FREQ_GHZ_0", "FREQ_GHZ_1", ...).
func FreqGHzName(core int) string { return freqGHzNames.name(core) }

// coreKnobNames holds the per-core names of one knob prefix for the first
// cores, rendered once, so the per-candidate lookups format nothing.
type coreKnobNames struct {
	prefix string
	names  [64]string
}

var phaseOffsetNames, freqGHzNames = newCoreKnobNames(NamePhaseOffset), newCoreKnobNames(NameFreqGHz)

func newCoreKnobNames(prefix string) *coreKnobNames {
	t := &coreKnobNames{prefix: prefix}
	for i := range t.names {
		t.names[i] = fmt.Sprintf("%s_%d", prefix, i)
	}
	return t
}

// name returns "<prefix>_<core>", from the table when it holds the core.
func (t *coreKnobNames) name(core int) string {
	if core >= 0 && core < len(t.names) {
		return t.names[core]
	}
	return fmt.Sprintf("%s_%d", t.prefix, core)
}

// instrKnobName maps a knob opcode to its Listing-1 knob name.
func instrKnobName(op isa.Opcode) string {
	switch op {
	case isa.ADD:
		return "ADD"
	case isa.MUL:
		return "MUL"
	case isa.FADDD:
		return "FADDD"
	case isa.FMULD:
		return "FMULD"
	case isa.BEQ:
		return "BEQ"
	case isa.BNE:
		return "BNE"
	case isa.LD:
		return "LD"
	case isa.LW:
		return "LW"
	case isa.SD:
		return "SD"
	case isa.SW:
		return "SW"
	default:
		return op.String()
	}
}

// instrFractionDefs returns the ten instruction-fraction knob definitions in
// the paper's Listing-1 order.
func instrFractionDefs() []Def {
	ops := isa.KnobOpcodes()
	defs := make([]Def, 0, len(ops))
	for _, op := range ops {
		defs = append(defs, Def{
			Name:   instrKnobName(op),
			Kind:   KindInstrFraction,
			Values: append([]float64(nil), instrFractionValues...),
			Opcode: op,
		})
	}
	return defs
}

// nonInstrDefs returns the non-instruction knob definitions of Listing 1.
func nonInstrDefs() []Def {
	return []Def{
		{Name: NameRegDist, Kind: KindRegDist, Values: append([]float64(nil), regDistValues...)},
		{Name: NameMemSize, Kind: KindMemSize, Values: append([]float64(nil), memSizeValues...)},
		{Name: NameMemStride, Kind: KindMemStride, Values: append([]float64(nil), memStrideValues...)},
		{Name: NameMemTemp1, Kind: KindMemTemp1, Values: append([]float64(nil), memTemp1Values...)},
		{Name: NameMemTemp2, Kind: KindMemTemp2, Values: append([]float64(nil), memTemp2Values...)},
		{Name: NameBranchPattern, Kind: KindBranchPattern, Values: append([]float64(nil), branchPatternValues...)},
	}
}

// dutyCycleDefs returns the duty-cycle/burst knob definitions that phase the
// generated kernel's activity: DUTY_CYCLE is the active fraction of each
// burst period, BURST_LEN the period in static instructions. Together they
// let a stress tuner shape the power waveform — e.g. align activity bursts
// with the supply network's resonant frequency to maximize voltage droop.
func dutyCycleDefs() []Def {
	return []Def{
		{Name: NameDutyCycle, Kind: KindDutyCycle, Values: append([]float64(nil), dutyCycleValues...)},
		{Name: NameBurstLen, Kind: KindBurstLen, Values: append([]float64(nil), burstLenValues...)},
	}
}
