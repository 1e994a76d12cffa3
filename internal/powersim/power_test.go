package powersim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"micrograd/internal/cpusim"
	"micrograd/internal/isa"
)

// fakeResult builds a cpusim.Result without running the simulator.
func fakeResult(instr, cycles uint64, mix map[isa.Class]float64) cpusim.Result {
	var counts [isa.NumClasses]uint64
	for c, f := range mix {
		counts[c] = uint64(f * float64(instr))
	}
	return cpusim.Result{
		Instructions: instr,
		Cycles:       cycles,
		ClassCounts:  counts,
		Config:       cpusim.Config{Name: "large", FrequencyGHz: 2},
	}
}

func TestCoefficientValidation(t *testing.T) {
	if err := LargeCoreCoefficients().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := SmallCoreCoefficients().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := LargeCoreCoefficients()
	bad.FrontEndPJ = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative coefficient should be rejected")
	}
	bad2 := LargeCoreCoefficients()
	bad2.ClassPJ = nil
	if _, err := New(bad2); err == nil {
		t.Error("missing class energies should be rejected")
	}
	bad3 := LargeCoreCoefficients()
	bad3.ClassPJ[isa.ClassFloat] = -5
	if err := bad3.Validate(); err == nil {
		t.Error("negative class energy should be rejected")
	}
}

func TestPowerIncreasesWithIPC(t *testing.T) {
	m, err := New(LargeCoreCoefficients())
	if err != nil {
		t.Fatal(err)
	}
	mix := map[isa.Class]float64{isa.ClassInteger: 0.5, isa.ClassLoad: 0.3, isa.ClassStore: 0.2}
	slow := fakeResult(10000, 20000, mix) // IPC 0.5
	fast := fakeResult(10000, 4000, mix)  // IPC 2.5
	if m.DynamicPower(fast) <= m.DynamicPower(slow) {
		t.Error("higher IPC should yield higher dynamic power")
	}
}

func TestPowerIncreasesWithExpensiveMix(t *testing.T) {
	m, _ := New(LargeCoreCoefficients())
	intMix := fakeResult(10000, 5000, map[isa.Class]float64{isa.ClassInteger: 1})
	fpMemMix := fakeResult(10000, 5000, map[isa.Class]float64{
		isa.ClassFloat: 0.4, isa.ClassLoad: 0.3, isa.ClassStore: 0.3})
	if m.DynamicPower(fpMemMix) <= m.DynamicPower(intMix) {
		t.Error("FP/memory-heavy mix should consume more power than integer mix at equal IPC")
	}
}

func TestLargeCoreConsumesMoreThanSmall(t *testing.T) {
	large, _ := New(LargeCoreCoefficients())
	small, _ := New(SmallCoreCoefficients())
	r := fakeResult(10000, 5000, map[isa.Class]float64{isa.ClassInteger: 0.6, isa.ClassLoad: 0.4})
	if large.DynamicPower(r) <= small.DynamicPower(r) {
		t.Error("large-core template should consume more power for the same activity")
	}
}

func TestPowerPlausibleRangeForLargeCore(t *testing.T) {
	// A power-virus-like run: IPC 3, memory/FP heavy mix on the large core.
	m, _ := New(LargeCoreCoefficients())
	r := fakeResult(30000, 10000, map[isa.Class]float64{
		isa.ClassInteger: 0.06, isa.ClassFloat: 0.23, isa.ClassBranch: 0.14,
		isa.ClassLoad: 0.23, isa.ClassStore: 0.34,
	})
	p := m.DynamicPower(r)
	if p < 1.0 || p > 3.5 {
		t.Errorf("power-virus-like run gives %.2f W; expected the paper's neighbourhood (1-3.5 W)", p)
	}
}

// Breakdown is the per-component energy attribution of a run: the reference
// DynamicPower must reproduce bit for bit.
type Breakdown struct {
	// Components maps component names to total energy in picojoules.
	Components map[string]float64
	// TotalPJ is the sum of all components.
	TotalPJ float64
	// Cycles and FrequencyGHz are carried from the run for power conversion.
	Cycles       uint64
	FrequencyGHz float64
}

// PowerW converts the breakdown into average dynamic power in watts.
func (b Breakdown) PowerW() float64 {
	if b.Cycles == 0 {
		return 0
	}
	perCycle := b.TotalPJ / float64(b.Cycles) // pJ per cycle
	// pJ/cycle * cycles/ns = mW; divide by 1000 for W.
	return perCycle * b.FrequencyGHz / 1000
}

// String renders the breakdown deterministically.
func (b Breakdown) String() string {
	names := make([]string, 0, len(b.Components))
	for n := range b.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.0fpJ", n, b.Components[n]))
	}
	return strings.Join(parts, " ")
}

// energyBreakdown attributes the run's dynamic energy to components.
func energyBreakdown(m *Model, r cpusim.Result) Breakdown {
	e := m.energy(r)
	return Breakdown{
		Components: map[string]float64{
			"clock":      e.clock,
			"execute":    e.execute,
			"frontend":   e.frontend,
			"l2":         e.l2,
			"memory":     e.memory,
			"mispredict": e.mispredict,
		},
		TotalPJ:      e.totalPJ(),
		Cycles:       r.Cycles,
		FrequencyGHz: r.Config.FrequencyGHz,
	}
}

// TestDynamicPowerMatchesBreakdown pins DynamicPower to the component
// breakdown's power, bit for bit, over both cores' coefficients, arbitrary
// event counts and clocks, and the zero-cycle run.
func TestDynamicPowerMatchesBreakdown(t *testing.T) {
	for _, coeff := range []Coefficients{LargeCoreCoefficients(), SmallCoreCoefficients()} {
		m, err := New(coeff)
		if err != nil {
			t.Fatal(err)
		}
		f := func(instr, cycles, mem, mispredicts, l2 uint16, ghz uint8) bool {
			r := fakeResult(uint64(instr), uint64(cycles), map[isa.Class]float64{
				isa.ClassInteger: 0.4, isa.ClassFloat: 0.2, isa.ClassLoad: 0.2, isa.ClassStore: 0.1, isa.ClassNop: 0.1,
			})
			r.MemAccesses = uint64(mem)
			r.Branch.Mispredicts = uint64(mispredicts)
			r.L2.Accesses = uint64(l2)
			r.Config.FrequencyGHz = 0.5 + float64(ghz)/64
			got, want := m.DynamicPower(r), energyBreakdown(m, r).PowerW()
			return math.Float64bits(got) == math.Float64bits(want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	}
}

func TestBreakdownConsistency(t *testing.T) {
	m, _ := New(LargeCoreCoefficients())
	r := fakeResult(10000, 5000, map[isa.Class]float64{isa.ClassInteger: 0.5, isa.ClassLoad: 0.5})
	r.MemAccesses = 100
	r.Branch.Mispredicts = 50
	r.L2.Accesses = 400
	b := energyBreakdown(m, r)
	sum := 0.0
	for _, e := range b.Components {
		sum += e
	}
	if math.Abs(sum-b.TotalPJ) > 1e-6 {
		t.Errorf("component sum %v != total %v", sum, b.TotalPJ)
	}
	for _, name := range []string{"frontend", "execute", "l2", "memory", "mispredict", "clock"} {
		if _, ok := b.Components[name]; !ok {
			t.Errorf("breakdown missing component %q", name)
		}
	}
	if b.String() == "" {
		t.Error("breakdown String empty")
	}
	if p := b.PowerW(); p <= 0 {
		t.Errorf("PowerW = %v", p)
	}
	empty := Breakdown{}
	if empty.PowerW() != 0 {
		t.Error("empty breakdown should have zero power")
	}
}

func TestUnknownClassFallsBackToInteger(t *testing.T) {
	coeff := LargeCoreCoefficients()
	delete(coeff.ClassPJ, isa.ClassNop)
	m, err := New(coeff)
	if err != nil {
		t.Fatal(err)
	}
	r := fakeResult(1000, 500, map[isa.Class]float64{isa.ClassNop: 1})
	if m.DynamicPower(r) <= 0 {
		t.Error("missing class coefficient should fall back, not zero out")
	}
}

// Property: dynamic power is non-negative and scales linearly with frequency.
func TestPropertyPowerScalesWithFrequency(t *testing.T) {
	m, _ := New(LargeCoreCoefficients())
	f := func(instr uint16, cyc uint16) bool {
		i := uint64(instr)%20000 + 1000
		c := uint64(cyc)%20000 + 1000
		r := fakeResult(i, c, map[isa.Class]float64{isa.ClassInteger: 0.7, isa.ClassLoad: 0.3})
		r.Config.FrequencyGHz = 2
		p2 := m.DynamicPower(r)
		r.Config.FrequencyGHz = 4
		p4 := m.DynamicPower(r)
		return p2 >= 0 && math.Abs(p4-2*p2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Regression (mglint maprange): energyBreakdown used to sum its component
// map in map iteration order, so TotalPJ — and every dynamic_power_w metric
// derived from it — could wobble in the last ULP between runs. The total is
// now folded in sorted component order; pin it bit-identical to that fold
// and stable across repeated calls.
func TestBreakdownTotalSumsInSortedOrder(t *testing.T) {
	m, _ := New(SmallCoreCoefficients())
	r := fakeResult(12345, 6789, map[isa.Class]float64{
		isa.ClassInteger: 0.31, isa.ClassFloat: 0.17, isa.ClassBranch: 0.13,
		isa.ClassLoad: 0.23, isa.ClassStore: 0.11, isa.ClassNop: 0.05,
	})
	r.MemAccesses = 731
	r.Branch.Mispredicts = 397
	r.L2.Accesses = 1013
	r.L2.Prefetches = 89

	base := energyBreakdown(m, r)
	names := make([]string, 0, len(base.Components))
	for n := range base.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	sortedSum := 0.0
	for _, n := range names {
		sortedSum += base.Components[n]
	}
	if base.TotalPJ != sortedSum {
		t.Fatalf("TotalPJ = %v, want the sorted-order fold %v (bit-identical)", base.TotalPJ, sortedSum)
	}
	for i := 0; i < 50; i++ {
		if again := energyBreakdown(m, r).TotalPJ; again != base.TotalPJ {
			t.Fatalf("run %d: TotalPJ = %v, differs from first run %v", i, again, base.TotalPJ)
		}
	}
}
