// Package powersim implements the activity-based dynamic power estimator
// that stands in for McPAT in this reproduction. Exactly like the paper's
// Gem5→McPAT flow, the model consumes the execution statistics produced by
// the performance simulator (internal/cpusim.Result) and converts them into
// a dynamic power figure using per-event energy coefficients plus a
// clock-tree component.
//
// The coefficients are calibrated so that the "Large" core's worst-case
// power virus lands in the neighbourhood of the paper's ≈2.1 W (Fig. 6); the
// absolute values are not meaningful beyond that anchoring, but the
// *sensitivity* — floating-point and memory operations cost several times an
// integer ALU operation, higher IPC means higher power — matches the
// structure McPAT models.
package powersim

import (
	"fmt"

	"micrograd/internal/cpusim"
	"micrograd/internal/isa"
)

// Coefficients are the per-event dynamic energy costs, in picojoules, plus
// the per-cycle clock-tree energy.
type Coefficients struct {
	// Name identifies the template ("small", "large").
	Name string
	// FrontEndPJ is charged once per dispatched instruction (fetch, decode,
	// rename, retire). NOPs are exempt: they are fused away at decode and
	// pay only their (tiny) class energy, which is what makes duty-cycled
	// kernels genuinely low-power during their idle phases.
	FrontEndPJ float64
	// ClassPJ is the execution energy per instruction class.
	ClassPJ map[isa.Class]float64
	// L2AccessPJ is charged per L2 access (demand or prefetch fill).
	L2AccessPJ float64
	// MemAccessPJ is charged per access that reaches main memory
	// (memory-controller and IO energy attributed to the core).
	MemAccessPJ float64
	// MispredictPJ is the squash/refill energy per mispredicted branch.
	MispredictPJ float64
	// ClockPJPerCycle is the clock-tree and always-on structure energy per
	// cycle.
	ClockPJPerCycle float64
}

// Validate checks that the coefficients are usable.
func (c Coefficients) Validate() error {
	if c.FrontEndPJ < 0 || c.L2AccessPJ < 0 || c.MemAccessPJ < 0 || c.MispredictPJ < 0 || c.ClockPJPerCycle < 0 {
		return fmt.Errorf("powersim: negative energy coefficient")
	}
	if len(c.ClassPJ) == 0 {
		return fmt.Errorf("powersim: missing per-class energies")
	}
	for cl, e := range c.ClassPJ {
		if !cl.Valid() {
			return fmt.Errorf("powersim: invalid class %v in coefficients", cl)
		}
		if e < 0 {
			return fmt.Errorf("powersim: negative energy for class %v", cl)
		}
	}
	return nil
}

// LargeCoreCoefficients returns the power template used with the paper's
// "Large" core configuration.
func LargeCoreCoefficients() Coefficients {
	return Coefficients{
		Name:       "large",
		FrontEndPJ: 112,
		ClassPJ: map[isa.Class]float64{
			isa.ClassInteger: 62,
			isa.ClassFloat:   258,
			isa.ClassBranch:  73,
			isa.ClassLoad:    185,
			isa.ClassStore:   206,
			isa.ClassNop:     11,
		},
		L2AccessPJ:      294,
		MemAccessPJ:     1015,
		MispredictPJ:    245,
		ClockPJPerCycle: 238,
	}
}

// SmallCoreCoefficients returns the power template used with the paper's
// "Small" core configuration.
func SmallCoreCoefficients() Coefficients {
	return Coefficients{
		Name:       "small",
		FrontEndPJ: 42,
		ClassPJ: map[isa.Class]float64{
			isa.ClassInteger: 27,
			isa.ClassFloat:   109,
			isa.ClassBranch:  30,
			isa.ClassLoad:    81,
			isa.ClassStore:   90,
			isa.ClassNop:     6,
		},
		L2AccessPJ:      133,
		MemAccessPJ:     560,
		MispredictPJ:    105,
		ClockPJPerCycle: 91,
	}
}

// Model estimates dynamic power from simulation results.
type Model struct {
	coeff Coefficients
	// classPJ is the ClassPJ map flattened into an array indexed by
	// isa.Class, with absent classes defaulting to the integer energy (the
	// map's historical fallback), so the per-window trace conversion does no
	// map lookups.
	classPJ [isa.NumClasses]float64
}

// New builds a power model.
func New(coeff Coefficients) (*Model, error) {
	if err := coeff.Validate(); err != nil {
		return nil, err
	}
	m := &Model{coeff: coeff}
	for cl := 0; cl < isa.NumClasses; cl++ {
		e, ok := coeff.ClassPJ[isa.Class(cl)]
		if !ok {
			e = coeff.ClassPJ[isa.ClassInteger]
		}
		m.classPJ[cl] = e
	}
	return m, nil
}

// DynamicPower returns the run's average dynamic power in watts: its total
// dynamic energy per cycle at the run's clock.
func (m *Model) DynamicPower(r cpusim.Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	perCycle := m.energy(r).totalPJ() / float64(r.Cycles) // pJ per cycle
	// pJ/cycle * cycles/ns = mW; divide by 1000 for W.
	return perCycle * r.Config.FrequencyGHz / 1000
}

// runEnergy is a run's dynamic energy per component, in picojoules.
type runEnergy struct {
	clock, execute, frontend, l2, memory, mispredict float64
}

// energy attributes the run's dynamic energy to the components.
func (m *Model) energy(r cpusim.Result) runEnergy {
	e := runEnergy{
		clock:      float64(r.Cycles) * m.coeff.ClockPJPerCycle,
		frontend:   float64(r.Instructions-r.ClassCounts[isa.ClassNop]) * m.coeff.FrontEndPJ,
		l2:         float64(r.L2.Accesses+r.L2.Prefetches) * m.coeff.L2AccessPJ,
		memory:     float64(r.MemAccesses) * m.coeff.MemAccessPJ,
		mispredict: float64(r.Branch.Mispredicts) * m.coeff.MispredictPJ,
	}
	for cl, n := range r.ClassCounts {
		if n > 0 {
			e.execute += float64(n) * m.classPJ[cl]
		}
	}
	return e
}

// totalPJ sums the components in the sorted order of their names (clock,
// execute, frontend, l2, memory, mispredict). Float addition is not
// associative, so a fixed order is what keeps TotalPJ — and every
// dynamic_power_w metric derived from it — from wobbling in the last ULP
// (the report.MeanAbsError bug class).
func (e runEnergy) totalPJ() float64 {
	total := 0.0
	total += e.clock
	total += e.execute
	total += e.frontend
	total += e.l2
	total += e.memory
	total += e.mispredict
	return total
}
