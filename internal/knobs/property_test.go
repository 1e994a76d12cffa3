package knobs

import (
	"math/rand"
	"testing"

	"micrograd/internal/isa"
)

func TestTransientStressSpaceShape(t *testing.T) {
	s := TransientStressSpace()
	if s.Len() != 13 {
		t.Fatalf("transient stress space has %d knobs, want 13 (10 instr + reg-dist + duty + burst)", s.Len())
	}
	for _, name := range []string{NameRegDist, NameDutyCycle, NameBurstLen} {
		if _, ok := s.IndexOf(name); !ok {
			t.Errorf("transient stress space missing %s", name)
		}
	}
	if _, ok := s.IndexOf(NameMemSize); ok {
		t.Error("transient stress space should not tune the memory footprint")
	}
}

func TestDutyCycleSettings(t *testing.T) {
	s := TransientStressSpace()
	cfg, err := s.ConfigFromValues(map[string]float64{NameDutyCycle: 0.4, NameBurstLen: 96})
	if err != nil {
		t.Fatal(err)
	}
	set := cfg.Settings()
	if set.DutyCycle != 0.4 {
		t.Errorf("duty cycle %v, want 0.4", set.DutyCycle)
	}
	if set.BurstLen != 96 {
		t.Errorf("burst length %v, want 96", set.BurstLen)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("settings invalid: %v", err)
	}
}

// validSettings completes the absent-knob defaults with a one-opcode profile.
func validSettings() Settings {
	set := defaultScalars
	set.InstrWeights = map[isa.Opcode]float64{isa.ADD: 1}
	return set
}

func TestSettingsDutyCycleValidation(t *testing.T) {
	set := validSettings()
	set.DutyCycle = -0.1
	if err := set.Validate(); err == nil {
		t.Error("negative duty cycle should be rejected")
	}
	set = validSettings()
	set.DutyCycle = 1.2
	if err := set.Validate(); err == nil {
		t.Error("duty cycle above 1 should be rejected")
	}
	set = validSettings()
	set.DutyCycle = 0.5
	set.BurstLen = 1
	if err := set.Validate(); err == nil {
		t.Error("duty cycling with burst length 1 should be rejected")
	}
	set = validSettings()
	set.DutyCycle = 0 // "not configured" is allowed
	set.BurstLen = 0
	if err := set.Validate(); err != nil {
		t.Errorf("unset duty knobs should validate: %v", err)
	}
}

// crossover performs a 1-point GA-style crossover of two configurations in
// index space, mirroring what the genetic-algorithm tuner does.
func crossover(t *testing.T, s *Space, a, b Config, point int) (Config, Config) {
	t.Helper()
	ia, ib := a.Indices(), b.Indices()
	ca, cb := make([]int, len(ia)), make([]int, len(ib))
	copy(ca, ia[:point])
	copy(ca[point:], ib[point:])
	copy(cb, ib[:point])
	copy(cb[point:], ia[point:])
	outA, err := s.ConfigFromIndices(ca)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := s.ConfigFromIndices(cb)
	if err != nil {
		t.Fatal(err)
	}
	return outA, outB
}

// checkInBounds asserts that every knob index is inside its value list and
// that the back-end interpretation of the configuration is valid.
func checkInBounds(t *testing.T, s *Space, cfg Config) {
	t.Helper()
	if cfg.Len() != s.Len() {
		t.Fatalf("config has %d knobs, space %d", cfg.Len(), s.Len())
	}
	for k := 0; k < cfg.Len(); k++ {
		idx := cfg.Index(k)
		if idx < 0 || idx >= s.Def(k).NumValues() {
			t.Fatalf("knob %s index %d out of range [0,%d)", s.Def(k).Name, idx, s.Def(k).NumValues())
		}
	}
	if err := cfg.Settings().Validate(); err != nil {
		t.Fatalf("settings of %s invalid: %v", cfg, err)
	}
}

// TestPropertySpaceOperationsStayValid drives every configuration operation
// the tuners use — random sampling, single-knob mutation (clamped steps and
// out-of-range writes) and 1-point crossover — across 10k seeded iterations
// on every built-in space, asserting the results always stay in bounds and
// interpret into valid back-end settings.
func TestPropertySpaceOperationsStayValid(t *testing.T) {
	spaces := map[string]*Space{
		"default":          DefaultSpace(),
		"instruction-only": InstructionOnlySpace(),
		"stress":           StressSpace(),
		"transient-stress": TransientStressSpace(),
		"corun-stress":     CoRunStressSpace(2),
		"dvfs-stress":      DVFSStressSpace(2),
	}
	const iterations = 10000
	for name, s := range spaces {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			cur := s.MidConfig()
			checkInBounds(t, s, cur)
			for i := 0; i < iterations; i++ {
				switch rng.Intn(4) {
				case 0: // sample
					cur = s.RandomConfig(rng)
				case 1: // mutate: step by an arbitrary (possibly huge) delta
					k := rng.Intn(s.Len())
					cur = cur.Step(k, rng.Intn(41)-20)
				case 2: // mutate: write an arbitrary raw index, relying on clamping
					k := rng.Intn(s.Len())
					cur = cur.WithIndex(k, rng.Intn(61)-30)
				case 3: // crossover with a fresh random partner
					partner := s.RandomConfig(rng)
					point := rng.Intn(s.Len())
					a, b := crossover(t, s, cur, partner, point)
					checkInBounds(t, s, b)
					cur = a
				}
				checkInBounds(t, s, cur)
			}
		})
	}
}

// TestPropertySampleDeterminism asserts equal seeds produce equal samples.
func TestPropertySampleDeterminism(t *testing.T) {
	s := TransientStressSpace()
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if !s.RandomConfig(a).Equal(s.RandomConfig(b)) {
			t.Fatal("equal seeds should sample equal configurations")
		}
	}
}
