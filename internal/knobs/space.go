package knobs

import (
	"fmt"
	"math/rand"
)

// Space is an ordered set of knob definitions. It is the search space the
// tuners explore and the vocabulary the code-generation back-end understands.
type Space struct {
	defs   []Def
	byName map[string]int
}

// NewSpace builds a Space from the given definitions. Definitions are
// validated and names must be unique.
func NewSpace(defs []Def) (*Space, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("knobs: space must have at least one knob")
	}
	s := &Space{
		defs:   make([]Def, len(defs)),
		byName: make(map[string]int, len(defs)),
	}
	copy(s.defs, defs)
	for i, d := range s.defs {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.byName[d.Name]; dup {
			return nil, fmt.Errorf("knobs: duplicate knob name %q", d.Name)
		}
		s.byName[d.Name] = i
	}
	return s, nil
}

// MustSpace is like NewSpace but panics on error. Intended for the built-in
// spaces, where an error is a programming bug.
func MustSpace(defs []Def) *Space {
	s, err := NewSpace(defs)
	if err != nil {
		panic(err)
	}
	return s
}

// DefaultSpace returns the full Listing-1 knob space used for workload
// cloning: ten instruction-fraction knobs, register dependency distance,
// memory footprint/stride/temporal locality and branch pattern randomization
// (16 knobs in total).
func DefaultSpace() *Space {
	return MustSpace(append(instrFractionDefs(), nonInstrDefs()...))
}

// InstructionOnlySpace returns the reduced space used by the paper's
// compute-focused performance-virus experiment (Fig. 5), which tunes only
// the ten instruction-fraction knobs.
func InstructionOnlySpace() *Space {
	return MustSpace(instrFractionDefs())
}

// StressSpace returns the space used for power-virus generation (Fig. 6):
// the ten instruction-fraction knobs plus the register dependency distance,
// which the paper reports the power virus drives to its maximum.
func StressSpace() *Space {
	defs := instrFractionDefs()
	defs = append(defs, Def{Name: NameRegDist, Kind: KindRegDist, Values: append([]float64(nil), regDistValues...)})
	return MustSpace(defs)
}

// transientDefs returns the knob definitions shared by the transient stress
// spaces: instruction fractions, register dependency distance, and the
// duty-cycle/burst-length knobs.
func transientDefs() []Def {
	defs := instrFractionDefs()
	defs = append(defs, Def{Name: NameRegDist, Kind: KindRegDist, Values: append([]float64(nil), regDistValues...)})
	return append(defs, dutyCycleDefs()...)
}

// TransientStressSpace returns the space used for the transient stress
// viruses (voltage noise and thermal): the power-virus space extended with
// the duty-cycle and burst-length knobs, which let the tuner shape — and
// phase-align — the kernel's activity bursts.
func TransientStressSpace() *Space {
	return MustSpace(transientDefs())
}

// coRunDefs returns the knob definitions of the co-run stress space: the
// transient defs (one shared kernel) plus a PHASE_OFFSET knob per core.
func coRunDefs(cores int) []Def {
	if cores < 1 {
		cores = 1
	}
	defs := transientDefs()
	for i := 0; i < cores; i++ {
		defs = append(defs, Def{Name: PhaseOffsetName(i), Kind: KindPhaseOffset, Values: append([]float64(nil), phaseOffsetValues...)})
	}
	return defs
}

// CoRunStressSpace returns the space used for chip-level co-run stress
// testing on n cores: the transient stress space (one shared kernel) extended
// with a PHASE_OFFSET knob per core, which rotates that core's burst
// schedule. The tuner thereby searches the joint space of kernel shape and
// inter-core burst phase alignment — the degree of freedom that excites a
// shared power-delivery network hardest.
func CoRunStressSpace(cores int) *Space {
	return MustSpace(coRunDefs(cores))
}

// SpatialStressSpace returns the space used for spatial-grid chip stress
// testing on n cores: the transient stress space (one shared kernel)
// extended with a PHASE_OFFSET knob per core on a finer 16-instruction
// phase grid. On a spatial chip the cores a floorplan co-locates must
// phase-align precisely to hammer their shared PDN node — the extra phase
// resolution (every CoRunStressSpace offset is also reachable here) is the
// locality-exploiting degree of freedom the spatial virus kinds tune.
func SpatialStressSpace(cores int) *Space {
	if cores < 1 {
		cores = 1
	}
	defs := transientDefs()
	for i := 0; i < cores; i++ {
		defs = append(defs, Def{Name: PhaseOffsetName(i), Kind: KindPhaseOffset, Values: append([]float64(nil), spatialPhaseOffsetValues...)})
	}
	return MustSpace(defs)
}

// DVFSStressSpace returns the space used for heterogeneous-frequency chip
// stress testing on n cores: the co-run stress space extended with a
// FREQ_GHZ knob per core. The evaluation platform realizes a FREQ_GHZ value
// by overriding that core's clock for the evaluation, so the tuner searches
// kernel shape, burst phase and per-core DVFS operating points jointly —
// the big.LITTLE scenario space a one-clock-domain chip cannot express.
func DVFSStressSpace(cores int) *Space {
	if cores < 1 {
		cores = 1
	}
	defs := coRunDefs(cores)
	for i := 0; i < cores; i++ {
		defs = append(defs, Def{Name: FreqGHzName(i), Kind: KindFreqGHz, Values: append([]float64(nil), freqGHzValues...)})
	}
	return MustSpace(defs)
}

// Len returns the number of knobs in the space.
func (s *Space) Len() int { return len(s.defs) }

// Def returns the i-th knob definition.
func (s *Space) Def(i int) Def {
	if i < 0 || i >= len(s.defs) {
		panic(fmt.Sprintf("knobs: knob index %d out of range [0,%d)", i, len(s.defs)))
	}
	return s.defs[i]
}

// IndexOf returns the position of the named knob and whether it exists.
func (s *Space) IndexOf(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Names returns the knob names in order.
func (s *Space) Names() []string {
	out := make([]string, len(s.defs))
	for i, d := range s.defs {
		out[i] = d.Name
	}
	return out
}

// Size returns the total number of distinct configurations in the space.
// It saturates at MaxInt64 should the product overflow (it does not for the
// built-in spaces).
func (s *Space) Size() int64 {
	const maxInt64 = int64(^uint64(0) >> 1)
	total := int64(1)
	for _, d := range s.defs {
		n := int64(d.NumValues())
		if total > maxInt64/n {
			return maxInt64
		}
		total *= n
	}
	return total
}

// NewConfig returns the configuration with every knob at index 0 (its
// smallest value).
func (s *Space) NewConfig() Config {
	return Config{space: s, idx: make([]int, len(s.defs))}.keyed()
}

// MidConfig returns the configuration with every knob at the middle of its
// value list. It is a reasonable deterministic starting point for tuning.
func (s *Space) MidConfig() Config {
	c := s.NewConfig()
	for i, d := range s.defs {
		c.idx[i] = d.NumValues() / 2
	}
	return c.keyed()
}

// RandomConfig returns a configuration with every knob index drawn uniformly
// at random from rng.
func (s *Space) RandomConfig(rng *rand.Rand) Config {
	c := s.NewConfig()
	for i, d := range s.defs {
		c.idx[i] = rng.Intn(d.NumValues())
	}
	return c.keyed()
}

// ConfigFromIndices builds a configuration from an explicit index vector.
// Indices are clamped into range. The slice is copied.
func (s *Space) ConfigFromIndices(idx []int) (Config, error) {
	if len(idx) != len(s.defs) {
		return Config{}, fmt.Errorf("knobs: index vector has %d entries, space has %d knobs", len(idx), len(s.defs))
	}
	c := s.NewConfig()
	for i, v := range idx {
		c.idx[i] = s.defs[i].Clamp(v)
	}
	return c.keyed(), nil
}

// ConfigFromValues builds a configuration whose knobs take the nearest
// available value to each entry of the named value map. Knobs absent from the
// map stay at their smallest value. Unknown names are an error.
func (s *Space) ConfigFromValues(values map[string]float64) (Config, error) {
	c := s.NewConfig()
	for name, v := range values {
		i, ok := s.byName[name]
		if !ok {
			return Config{}, fmt.Errorf("knobs: unknown knob %q", name)
		}
		c.idx[i] = s.defs[i].NearestIndex(v)
	}
	return c.keyed(), nil
}
