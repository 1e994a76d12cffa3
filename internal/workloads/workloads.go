// Package workloads provides the reference applications that the cloning
// use case targets. The paper clones 100M-instruction simpoints of 8 SPEC INT
// CPU2006 benchmarks; SPEC sources and traces are proprietary and unavailable
// offline, so this reproduction substitutes each benchmark with a synthetic
// *reference application*: a workload generated through the same code
// generation back-end but with a per-benchmark characteristic profile
// (instruction mix, working-set size, access stride and re-use, branch
// entropy, code footprint) drawn from published SPEC CPU2006 characterization
// studies. The cloner never sees these profiles — it only observes the
// metric vector the reference produces on the evaluation platform, exactly as
// it would for a real application binary.
package workloads

import (
	"fmt"
	"sort"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/program"
)

// Phase is one execution phase (simpoint) of a benchmark.
type Phase struct {
	// Name identifies the phase ("phase0", "init", "steady").
	Name string
	// Weight is the fraction of execution time the phase represents.
	Weight float64
	// Settings is the abstract workload description of the phase.
	Settings knobs.Settings
	// LoopSize is the static code footprint of the phase, in instructions.
	LoopSize int
	// Seed makes the phase's generated code deterministic.
	Seed int64
}

// Benchmark is one reference application.
type Benchmark struct {
	// Name is the SPEC-style benchmark name ("mcf", "xalancbmk").
	Name string
	// Description summarizes the behaviour being modelled.
	Description string
	// Phases are the benchmark's simpoints, in execution order. The first
	// phase is the "dominant" simpoint used when a single phase is needed.
	Phases []Phase
}

// Validate checks the benchmark definition.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workloads: benchmark with empty name")
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("workloads: benchmark %q has no phases", b.Name)
	}
	total := 0.0
	for _, ph := range b.Phases {
		if ph.LoopSize < microprobe.MinLoopSize {
			return fmt.Errorf("workloads: benchmark %q phase %q has loop size %d", b.Name, ph.Name, ph.LoopSize)
		}
		if err := ph.Settings.Validate(); err != nil {
			return fmt.Errorf("workloads: benchmark %q phase %q: %w", b.Name, ph.Name, err)
		}
		if ph.Weight <= 0 {
			return fmt.Errorf("workloads: benchmark %q phase %q has non-positive weight", b.Name, ph.Name)
		}
		total += ph.Weight
	}
	if total < 0.99 || total > 1.01 {
		return fmt.Errorf("workloads: benchmark %q phase weights sum to %v", b.Name, total)
	}
	return nil
}

// DominantPhase returns the highest-weight phase.
func (b Benchmark) DominantPhase() Phase {
	best := b.Phases[0]
	for _, ph := range b.Phases[1:] {
		if ph.Weight > best.Weight {
			best = ph
		}
	}
	return best
}

// Program synthesizes the reference program of the benchmark's dominant
// phase.
func (b Benchmark) Program() (*program.Program, error) {
	return b.PhaseProgram(b.DominantPhase())
}

// PhaseProgram synthesizes the reference program of one phase.
func (b Benchmark) PhaseProgram(ph Phase) (*program.Program, error) {
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: ph.LoopSize, Seed: ph.Seed})
	p, err := syn.SynthesizeSettings(fmt.Sprintf("ref-%s-%s", b.Name, ph.Name), ph.Settings)
	if err != nil {
		return nil, fmt.Errorf("workloads: synthesizing %s/%s: %w", b.Name, ph.Name, err)
	}
	p.Meta["benchmark"] = b.Name
	p.Meta["phase"] = ph.Name
	return p, nil
}

// Reference measures the benchmark's dominant-phase metric vector on the
// given platform. This vector is what the cloning use case receives as its
// target, mirroring "run the application, read its counters" in the paper.
func (b Benchmark) Reference(plat platform.Platform, opts platform.EvalOptions) (metrics.Vector, error) {
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	return referenceEval(plat, p, opts)
}

// referenceEval measures one program's metric vector on the platform.
func referenceEval(plat platform.Platform, p *program.Program, opts platform.EvalOptions) (metrics.Vector, error) {
	resp, err := plat.EvaluateRequest(platform.EvalRequest{Programs: []*program.Program{p}, Options: opts})
	return resp.Metrics, err
}

// PhaseReferences measures every phase of the benchmark and returns the
// per-phase metric vectors keyed by phase name.
func (b Benchmark) PhaseReferences(plat platform.Platform, opts platform.EvalOptions) (map[string]metrics.Vector, error) {
	out := make(map[string]metrics.Vector, len(b.Phases))
	for _, ph := range b.Phases {
		p, err := b.PhaseProgram(ph)
		if err != nil {
			return nil, err
		}
		v, err := referenceEval(plat, p, opts)
		if err != nil {
			return nil, err
		}
		out[ph.Name] = v
	}
	return out, nil
}

// SPECInt2006 returns the 8 reference applications standing in for the
// paper's SPEC INT CPU2006 subset (astar, bzip2, gcc, hmmer, libquantum,
// mcf, sjeng, xalancbmk). Profiles follow published characterizations: the
// instruction mixes, working sets, access regularity and branch behaviour
// are chosen per benchmark so that each produces a distinct metric signature
// on the evaluation platforms.
func SPECInt2006() []Benchmark {
	return []Benchmark{
		{
			Name:        "astar",
			Description: "path-finding: pointer-ish loads, moderately hard branches, mid-size working set",
			Phases: []Phase{{
				Name: "steady", Weight: 1, LoopSize: 900, Seed: 101,
				Settings: knobs.Settings{
					Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 28, isa.SUB: 9,
						isa.MUL: 3, isa.SLL: 4, isa.BEQ: 7, isa.BNE: 9, isa.LD: 22, isa.LW: 8,
						isa.SD: 6, isa.SW: 4}),
					RegDist: 4, MemFootprintKB: 384, MemStrideB: 24,
					MemTemp1: 16, MemTemp2: 6, BranchRandomRatio: 0.42,
				},
			}},
		},
		{
			Name:        "bzip2",
			Description: "compression: integer/shift heavy, good data locality, predictable branches",
			Phases: []Phase{{
				Name: "steady", Weight: 1, LoopSize: 700, Seed: 102,
				Settings: knobs.Settings{
					Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 26, isa.SUB: 8,
						isa.AND: 6, isa.OR: 5, isa.SLL: 7, isa.SRL: 6, isa.BEQ: 5, isa.BNE: 7,
						isa.LD: 12, isa.LW: 9, isa.SD: 5, isa.SW: 6}),
					RegDist: 5, MemFootprintKB: 96, MemStrideB: 8,
					MemTemp1: 64, MemTemp2: 3, BranchRandomRatio: 0.22,
				},
			}},
		},
		{
			Name:        "gcc",
			Description: "compiler: very large code and data footprint, branchy, store-rich",
			Phases: []Phase{
				{
					Name: "parse", Weight: 0.6, LoopSize: 4200, Seed: 103,
					Settings: knobs.Settings{
						Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 22, isa.SUB: 6,
							isa.AND: 4, isa.XOR: 3, isa.BEQ: 10, isa.BNE: 10, isa.LD: 18, isa.LW: 7,
							isa.SD: 11, isa.SW: 6}),
						RegDist: 3, MemFootprintKB: 768, MemStrideB: 32,
						MemTemp1: 8, MemTemp2: 5, BranchRandomRatio: 0.5,
					},
				},
				{
					Name: "optimize", Weight: 0.4, LoopSize: 3600, Seed: 113,
					Settings: knobs.Settings{
						Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 25, isa.SUB: 7,
							isa.SLL: 4, isa.BEQ: 9, isa.BNE: 9, isa.LD: 16, isa.LW: 8, isa.SD: 9,
							isa.SW: 5}),
						RegDist: 4, MemFootprintKB: 512, MemStrideB: 24,
						MemTemp1: 16, MemTemp2: 4, BranchRandomRatio: 0.45,
					},
				},
			},
		},
		{
			Name:        "hmmer",
			Description: "sequence scoring: dense inner loop, load heavy, highly predictable branches, high ILP",
			Phases: []Phase{{
				Name: "steady", Weight: 1, LoopSize: 600, Seed: 104,
				Settings: knobs.Settings{
					Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 34, isa.SUB: 6,
						isa.MUL: 5, isa.BEQ: 3, isa.BNE: 4, isa.LD: 24, isa.LW: 12, isa.SD: 7,
						isa.SW: 5}),
					RegDist: 8, MemFootprintKB: 48, MemStrideB: 8,
					MemTemp1: 128, MemTemp2: 2, BranchRandomRatio: 0.08,
				},
			}},
		},
		{
			Name:        "libquantum",
			Description: "quantum simulation: streaming over a huge array, almost perfect branches",
			Phases: []Phase{{
				Name: "steady", Weight: 1, LoopSize: 500, Seed: 105,
				Settings: knobs.Settings{
					Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 22, isa.AND: 6,
						isa.XOR: 5, isa.SLL: 4, isa.BEQ: 4, isa.BNE: 6, isa.LD: 26, isa.LW: 6,
						isa.SD: 14, isa.SW: 7}),
					RegDist: 7, MemFootprintKB: 2048, MemStrideB: 16,
					MemTemp1: 2, MemTemp2: 9, BranchRandomRatio: 0.05,
				},
			}},
		},
		{
			Name:        "mcf",
			Description: "network simplex: pointer chasing, memory bound, large sparse working set",
			Phases: []Phase{{
				Name: "steady", Weight: 1, LoopSize: 800, Seed: 106,
				Settings: knobs.Settings{
					Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 20, isa.SUB: 7,
						isa.BEQ: 8, isa.BNE: 9, isa.LD: 30, isa.LW: 8, isa.SD: 8, isa.SW: 4}),
					RegDist: 2, MemFootprintKB: 1536, MemStrideB: 56,
					MemTemp1: 4, MemTemp2: 8, BranchRandomRatio: 0.38,
				},
			}},
		},
		{
			Name:        "sjeng",
			Description: "chess search: branch dominated, hard-to-predict, moderate working set",
			Phases: []Phase{{
				Name: "steady", Weight: 1, LoopSize: 1100, Seed: 107,
				Settings: knobs.Settings{
					Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 24, isa.SUB: 6,
						isa.AND: 7, isa.OR: 4, isa.SLL: 5, isa.BEQ: 11, isa.BNE: 12, isa.LD: 14,
						isa.LW: 6, isa.SD: 5, isa.SW: 4}),
					RegDist: 4, MemFootprintKB: 192, MemStrideB: 16,
					MemTemp1: 32, MemTemp2: 4, BranchRandomRatio: 0.62,
				},
			}},
		},
		{
			Name:        "xalancbmk",
			Description: "XML transformation: very large code footprint, branchy, load rich, pointer heavy",
			Phases: []Phase{{
				Name: "steady", Weight: 1, LoopSize: 5200, Seed: 108,
				Settings: knobs.Settings{
					Profile: knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 21, isa.SUB: 5,
						isa.AND: 4, isa.BEQ: 10, isa.BNE: 11, isa.LD: 24, isa.LW: 8, isa.SD: 8,
						isa.SW: 5}),
					RegDist: 3, MemFootprintKB: 640, MemStrideB: 40,
					MemTemp1: 8, MemTemp2: 6, BranchRandomRatio: 0.48,
				},
			}},
		},
	}
}

// Names returns the benchmark names in suite order.
func Names() []string {
	bms := SPECInt2006()
	out := make([]string, len(bms))
	for i, b := range bms {
		out[i] = b.Name
	}
	return out
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range SPECInt2006() {
		if b.Name == name {
			return b, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q (known: %v)", name, known)
}
