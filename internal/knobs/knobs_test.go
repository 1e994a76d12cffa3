package knobs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"micrograd/internal/isa"
)

func TestDefaultSpaceShape(t *testing.T) {
	s := DefaultSpace()
	if s.Len() != 16 {
		t.Fatalf("DefaultSpace has %d knobs, want 16 (10 instr + 6 others)", s.Len())
	}
	wantNames := []string{"ADD", "MUL", "FADDD", "FMULD", "BEQ", "BNE", "LD", "LW", "SD", "SW",
		NameRegDist, NameMemSize, NameMemStride, NameMemTemp1, NameMemTemp2, NameBranchPattern}
	for _, name := range wantNames {
		if _, ok := s.IndexOf(name); !ok {
			t.Errorf("DefaultSpace missing knob %q", name)
		}
	}
}

func TestInstructionOnlySpace(t *testing.T) {
	s := InstructionOnlySpace()
	if s.Len() != 10 {
		t.Fatalf("InstructionOnlySpace has %d knobs, want 10", s.Len())
	}
	for i := range s.Len() {
		if d := s.Def(i); d.Kind != KindInstrFraction {
			t.Errorf("knob %q has kind %v, want instr-fraction", d.Name, d.Kind)
		}
	}
}

func TestStressSpace(t *testing.T) {
	s := StressSpace()
	if s.Len() != 11 {
		t.Fatalf("StressSpace has %d knobs, want 11", s.Len())
	}
	if _, ok := s.IndexOf(NameRegDist); !ok {
		t.Error("StressSpace missing REG_DIST")
	}
}

func TestCoRunStressSpace(t *testing.T) {
	s := CoRunStressSpace(3)
	// transient space (13 knobs) + one PHASE_OFFSET per core.
	if s.Len() != 16 {
		t.Fatalf("CoRunStressSpace(3) has %d knobs, want 16", s.Len())
	}
	for core := 0; core < 3; core++ {
		i, ok := s.IndexOf(PhaseOffsetName(core))
		if !ok {
			t.Fatalf("missing %s", PhaseOffsetName(core))
		}
		if d := s.Def(i); d.Kind != KindPhaseOffset {
			t.Errorf("%s has kind %v, want phase-offset", d.Name, d.Kind)
		}
	}
	if _, ok := s.IndexOf(PhaseOffsetName(3)); ok {
		t.Error("space should not have a fourth phase knob")
	}
	if _, ok := s.IndexOf(NameDutyCycle); !ok {
		t.Error("co-run space missing DUTY_CYCLE")
	}

	// Phase knobs are per-core: Settings() ignores them (the co-run platform
	// applies them per core), and the settings stay valid.
	cfg := s.MidConfig()
	set := cfg.Settings()
	if set.PhaseOffset != 0 {
		t.Errorf("shared settings should leave PhaseOffset 0, got %d", set.PhaseOffset)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("mid-config settings should validate: %v", err)
	}
	set.PhaseOffset = -1
	if err := set.Validate(); err == nil {
		t.Error("negative phase offset should be rejected")
	}
}

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(nil); err == nil {
		t.Error("empty space should be rejected")
	}
	bad := []Def{{Name: "X", Kind: KindRegDist, Values: []float64{1}}}
	if _, err := NewSpace(bad); err == nil {
		t.Error("single-value knob should be rejected")
	}
	unsorted := []Def{{Name: "X", Kind: KindRegDist, Values: []float64{3, 1, 2}}}
	if _, err := NewSpace(unsorted); err == nil {
		t.Error("unsorted values should be rejected")
	}
	dup := []Def{
		{Name: "X", Kind: KindRegDist, Values: []float64{1, 2}},
		{Name: "X", Kind: KindRegDist, Values: []float64{1, 2}},
	}
	if _, err := NewSpace(dup); err == nil {
		t.Error("duplicate knob names should be rejected")
	}
	dupVal := []Def{{Name: "X", Kind: KindRegDist, Values: []float64{1, 1, 2}}}
	if _, err := NewSpace(dupVal); err == nil {
		t.Error("duplicate knob values should be rejected")
	}
}

func TestDefClamp(t *testing.T) {
	d := Def{Name: "X", Kind: KindRegDist, Values: []float64{1, 2, 3}}
	cases := []struct{ in, want int }{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {100, 2}}
	for _, tc := range cases {
		if got := d.Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestDefNearestIndex(t *testing.T) {
	d := Def{Name: "MEM", Kind: KindMemSize, Values: []float64{2, 4, 8, 16}}
	cases := []struct {
		v    float64
		want int
	}{{0, 0}, {2, 0}, {3.2, 1}, {7, 2}, {11, 2}, {13, 3}, {1000, 3}}
	for _, tc := range cases {
		if got := d.NearestIndex(tc.v); got != tc.want {
			t.Errorf("NearestIndex(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestConfigBasics(t *testing.T) {
	s := DefaultSpace()
	c := s.NewConfig()
	if c.Len() != s.Len() {
		t.Fatalf("config len %d, want %d", c.Len(), s.Len())
	}
	for i := 0; i < c.Len(); i++ {
		if c.Index(i) != 0 {
			t.Errorf("new config knob %d index = %d, want 0", i, c.Index(i))
		}
	}
	c2 := c.WithIndex(0, 5)
	if c2.Index(0) != 5 {
		t.Errorf("WithIndex did not set index: %d", c2.Index(0))
	}
	if c.Index(0) != 0 {
		t.Error("WithIndex mutated the receiver")
	}
	c3 := c2.Step(0, -2)
	if c3.Index(0) != 3 {
		t.Errorf("Step(-2) = %d, want 3", c3.Index(0))
	}
	if got := c2.Step(0, 1000).Index(0); got != s.Def(0).NumValues()-1 {
		t.Errorf("Step clamping failed: %d", got)
	}
}

func TestConfigEqualAndDistance(t *testing.T) {
	s := DefaultSpace()
	a := s.MidConfig()
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal to original")
	}
	b = b.WithIndex(2, a.Index(2)+3)
	if a.Equal(b) {
		t.Error("modified config should not be equal")
	}
	other := InstructionOnlySpace().NewConfig()
	if a.Equal(other) {
		t.Error("configs from different spaces must not be equal")
	}
}

func TestConfigValuesAndKey(t *testing.T) {
	s := DefaultSpace()
	rng := rand.New(rand.NewSource(1))
	a := s.RandomConfig(rng)
	b := s.RandomConfig(rng)
	if a.Key() == b.Key() && !a.Equal(b) {
		t.Error("distinct configs share a key")
	}
	for i := range s.Len() {
		name, v := s.Def(i).Name, a.Value(i)
		got, ok := a.ValueByName(name)
		if !ok || got != v {
			t.Errorf("ValueByName(%q) = %v,%v; want %v,true", name, got, ok, v)
		}
	}
	if _, ok := a.ValueByName("NOPE"); ok {
		t.Error("ValueByName of unknown knob should report false")
	}
	if a.String() == "" || s.NewConfig().String() == "" {
		t.Error("String should not be empty")
	}
	var zero Config
	if !zero.IsZero() || zero.String() != "<zero config>" {
		t.Error("zero config misbehaves")
	}
}

func TestConfigFromIndicesAndValues(t *testing.T) {
	s := DefaultSpace()
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = 100 // out of range; should clamp
	}
	c, err := s.ConfigFromIndices(idx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		if c.Index(i) != s.Def(i).NumValues()-1 {
			t.Errorf("knob %d not clamped to max", i)
		}
	}
	if _, err := s.ConfigFromIndices([]int{1, 2}); err == nil {
		t.Error("short index vector should be rejected")
	}

	cv, err := s.ConfigFromValues(map[string]float64{"ADD": 7, NameMemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cv.ValueByName("ADD"); v != 7 {
		t.Errorf("ADD value = %v, want 7", v)
	}
	if v, _ := cv.ValueByName(NameMemSize); v != 128 {
		t.Errorf("MEM_SIZE value = %v, want 128 (nearest to 100)", v)
	}
	if _, err := s.ConfigFromValues(map[string]float64{"BOGUS": 1}); err == nil {
		t.Error("unknown knob name should be rejected")
	}
}

func TestSpaceSize(t *testing.T) {
	s := InstructionOnlySpace()
	want := int64(1)
	for i := 0; i < s.Len(); i++ {
		want *= int64(s.Def(i).NumValues())
	}
	if got := s.Size(); got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
}

func TestSettingsInterpretation(t *testing.T) {
	s := DefaultSpace()
	c, err := s.ConfigFromValues(map[string]float64{
		"ADD": 10, "LD": 5, "SD": 5,
		NameRegDist: 8, NameMemSize: 256, NameMemStride: 64,
		NameMemTemp1: 32, NameMemTemp2: 4, NameBranchPattern: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := c.Settings()
	if err := set.Validate(); err != nil {
		t.Fatalf("settings invalid: %v", err)
	}
	if set.RegDist != 8 || set.MemFootprintKB != 256 || set.MemStrideB != 64 ||
		set.MemTemp1 != 32 || set.MemTemp2 != 4 || set.BranchRandomRatio != 0.5 {
		t.Errorf("settings misinterpreted: %+v", set)
	}
	if w := weightMap(set.Profile); w[isa.ADD] != 10 || w[isa.LD] != 5 {
		t.Errorf("instruction weights misinterpreted: %v", w)
	}
}

func TestSettingsDefaultsWhenKnobsAbsent(t *testing.T) {
	s := InstructionOnlySpace()
	set := s.MidConfig().Settings()
	def := defaultScalars
	if set.RegDist != def.RegDist || set.MemFootprintKB != def.MemFootprintKB ||
		set.BranchRandomRatio != def.BranchRandomRatio {
		t.Errorf("absent knobs should take defaults, got %+v", set)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("default-completed settings invalid: %v", err)
	}
}

func TestSettingsValidateRejectsBadInputs(t *testing.T) {
	good := defaultScalars
	cases := []func(s *Settings){
		func(s *Settings) { s.Profile = Profile{} },
		func(s *Settings) { s.Profile.Set(isa.ADD, -1) },
		func(s *Settings) { s.RegDist = 0 },
		func(s *Settings) { s.MemFootprintKB = 0 },
		func(s *Settings) { s.MemStrideB = 0 },
		func(s *Settings) { s.MemTemp1 = 0 },
		func(s *Settings) { s.MemTemp2 = 0 },
		func(s *Settings) { s.BranchRandomRatio = 1.5 },
		func(s *Settings) { s.BranchRandomRatio = -0.1 },
		// Profiles that name only zero weights leave nothing to apportion.
		func(s *Settings) { s.Profile.Set(isa.ADD, 0) },
		func(s *Settings) { s.Profile.Set(isa.ADD, 0); s.Profile.Set(isa.BNE, 0) },
		func(s *Settings) { s.Profile.Set(isa.LD, math.NaN()) },
		func(s *Settings) { s.Profile.Set(isa.LD, math.Inf(1)) },
	}
	for i, mutate := range cases {
		s := good
		s.Profile = NewProfile(map[isa.Opcode]float64{isa.ADD: 1})
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// Property: for any index vector, ConfigFromIndices clamps into range and
// Settings always validate.
func TestPropertyConfigAlwaysValid(t *testing.T) {
	s := DefaultSpace()
	f := func(raw []int16) bool {
		idx := make([]int, s.Len())
		for i := range idx {
			if i < len(raw) {
				idx[i] = int(raw[i])
			}
		}
		c, err := s.ConfigFromIndices(idx)
		if err != nil {
			return false
		}
		for i := 0; i < c.Len(); i++ {
			if c.Index(i) < 0 || c.Index(i) >= s.Def(i).NumValues() {
				return false
			}
		}
		return c.Settings().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomConfigDeterministic(t *testing.T) {
	s := DefaultSpace()
	a := s.RandomConfig(rand.New(rand.NewSource(7)))
	b := s.RandomConfig(rand.New(rand.NewSource(7)))
	if !a.Equal(b) {
		t.Error("RandomConfig with same seed differs")
	}
}

// numKinds is one past the last knob kind.
const numKinds = KindFreqGHz + 1

func TestKindString(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
}

func TestDVFSStressSpace(t *testing.T) {
	s := DVFSStressSpace(2)
	// co-run space (13 + 2 phase knobs) + one FREQ_GHZ per core.
	if s.Len() != 17 {
		t.Fatalf("DVFSStressSpace(2) has %d knobs, want 17", s.Len())
	}
	for core := 0; core < 2; core++ {
		i, ok := s.IndexOf(FreqGHzName(core))
		if !ok {
			t.Fatalf("missing %s", FreqGHzName(core))
		}
		if d := s.Def(i); d.Kind != KindFreqGHz {
			t.Errorf("%s has kind %v, want freq-ghz", d.Name, d.Kind)
		}
		if _, ok := s.IndexOf(PhaseOffsetName(core)); !ok {
			t.Fatalf("missing %s", PhaseOffsetName(core))
		}
	}
	if _, ok := s.IndexOf(FreqGHzName(2)); ok {
		t.Error("space should not have a third clock knob")
	}
	// Clock knobs must reach both the 2.0/1.2 big.LITTLE operating points and
	// a boost bin above the 2 GHz base clock.
	i, _ := s.IndexOf(FreqGHzName(0))
	d := s.Def(i)
	if got := d.Values[d.NearestIndex(1.2)]; got != 1.2 {
		t.Errorf("nearest clock to 1.2 GHz is %g", got)
	}
	if got := d.Values[d.NearestIndex(2.0)]; got != 2.0 {
		t.Errorf("nearest clock to 2.0 GHz is %g", got)
	}
	if max := d.Values[d.NumValues()-1]; max <= 2.0 {
		t.Errorf("largest clock bin %g GHz should boost past the 2 GHz base", max)
	}

	// Clock knobs are per-core: Settings() ignores them (the co-run platform
	// overrides clocks at evaluation time), and the settings stay valid.
	set := s.MidConfig().Settings()
	if err := set.Validate(); err != nil {
		t.Errorf("mid settings invalid: %v", err)
	}
	if got := KindFreqGHz.String(); got != "freq-ghz" {
		t.Errorf("kind renders as %q", got)
	}
}

// TestCoreKnobNames pins the per-core knob names, from the prebuilt table
// and past it: "<prefix>_<core>" for every core index.
func TestCoreKnobNames(t *testing.T) {
	for _, core := range []int{0, 1, 9, 63, 64, 100, -1} {
		if got, want := PhaseOffsetName(core), fmt.Sprintf("PHASE_OFFSET_%d", core); got != want {
			t.Errorf("PhaseOffsetName(%d) = %q, want %q", core, got, want)
		}
		if got, want := FreqGHzName(core), fmt.Sprintf("FREQ_GHZ_%d", core); got != want {
			t.Errorf("FreqGHzName(%d) = %q, want %q", core, got, want)
		}
	}
}
