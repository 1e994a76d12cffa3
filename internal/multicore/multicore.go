// Package multicore grows the evaluation platform from one core to N
// co-running cores sharing a power-delivery network and a die. Each core runs
// its own kernel on a private platform.SimPlatform (performance and energy
// are per-core concerns), and cores that would run the very same simulation
// — equal spec, clock and kernel content — share one run of it. The
// per-core power traces are then aligned onto a
// common window grid — honouring per-core start skews — and summed into a
// chip-level trace that drives one shared powersim.SupplyModel and
// powersim.ThermalModel. Worst-case droop and hotspot temperature are
// chip-level phenomena: co-running kernels that phase-align their activity
// bursts excite the shared PDN far harder than any single core can, which is
// exactly the degree of freedom the corun-noise-virus stress kind tunes.
//
// Cores need not share a clock domain: every chip — homogeneous or
// heterogeneous-frequency (big.LITTLE pairings, per-core DVFS overrides from
// the FREQ_GHZ knobs) — is aggregated on a nanosecond grid via
// powersim.SumTracesTime, the single aggregation path. One-clock chips
// reproduce the retired cycle-grid arithmetic to ≤1e-9 (pinned by the
// powersim oracle fuzz target and the chip-metric equivalence test).
package multicore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
	"micrograd/internal/platform"
	"micrograd/internal/powersim"
	"micrograd/internal/program"
	"micrograd/internal/sched"
)

// CoRunSpec describes a multi-core co-run platform: the per-core
// specifications plus the chip-level supply and thermal models every core's
// activity feeds into. The per-core Supply model inside each CoreSpec still
// produces that core's own droop metric (the chip reports no per-core
// temperature); the shared models here see the summed trace.
type CoRunSpec struct {
	// Cores are the co-running core configurations. Every core must record
	// activity windows (WindowCycles > 0); clock frequencies only need to be
	// positive and may differ per core.
	Cores []platform.CoreSpec
	// Supply is the shared power-delivery network.
	Supply powersim.SupplyModel
	// Thermal is the shared die hotspot model.
	Thermal powersim.ThermalModel
	// OffsetCycles optionally skews each core's start by this many cycles
	// when the traces are aligned (nil = all cores start together).
	OffsetCycles []uint64
	// GridSupply, GridThermal and Floorplan switch the chip's transient
	// analyses onto a 2D spatial grid: per-core traces are aggregated per
	// floorplan node and fed to the spatial solvers, which emit per-node
	// droop/temperature metrics plus the chip-worst values. All three must
	// be set together (or all nil for the lumped models above); a 1×1 grid
	// reproduces the lumped chip metrics exactly.
	GridSupply  *powersim.GridSupplyModel
	GridThermal *powersim.GridThermalModel
	Floorplan   *Floorplan
}

// Spatial reports whether the spec evaluates on a spatial grid rather than
// the lumped chip models.
func (s CoRunSpec) Spatial() bool { return s.GridSupply != nil }

// WithGrid returns a copy of the spec evaluated on a rows×cols spatial
// PDN/thermal grid: the per-node models inherit the spec's lumped
// parameters with the default lateral couplings, and fp maps cores onto
// nodes (nil = the round-robin DefaultFloorplan). Validation of the
// dimensions happens in Validate, i.e. at New.
func (s CoRunSpec) WithGrid(rows, cols int, fp *Floorplan) CoRunSpec {
	out := s
	gs := powersim.GridSupplyModel{Rows: rows, Cols: cols, Node: s.Supply, CouplingS: powersim.DefaultGridCouplingS}
	gt := powersim.GridThermalModel{Rows: rows, Cols: cols, Node: s.Thermal, LateralWPerC: powersim.DefaultGridLateralWPerC}
	out.GridSupply = &gs
	out.GridThermal = &gt
	plan := DefaultFloorplan(rows, cols, len(s.Cores))
	if fp != nil {
		plan = *fp
	}
	out.Floorplan = &plan
	return out
}

// Homogeneous returns a co-run spec of n copies of one core, sharing that
// core's supply and thermal models at chip level.
func Homogeneous(core platform.CoreSpec, n int) CoRunSpec {
	spec := CoRunSpec{Supply: core.Supply, Thermal: core.Thermal}
	for i := 0; i < n; i++ {
		spec.Cores = append(spec.Cores, core)
	}
	return spec
}

// Validate checks the spec.
func (s CoRunSpec) Validate() error {
	if len(s.Cores) == 0 {
		return fmt.Errorf("multicore: co-run spec without cores")
	}
	for i, c := range s.Cores {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("multicore: core %d: %w", i, err)
		}
		if c.CPU.WindowCycles <= 0 {
			return fmt.Errorf("multicore: core %d records no activity windows (WindowCycles = %d)", i, c.CPU.WindowCycles)
		}
	}
	if s.OffsetCycles != nil && len(s.OffsetCycles) != len(s.Cores) {
		return fmt.Errorf("multicore: %d start offsets for %d cores", len(s.OffsetCycles), len(s.Cores))
	}
	if err := s.Supply.Validate(); err != nil {
		return err
	}
	if err := s.Thermal.Validate(); err != nil {
		return err
	}
	if s.GridSupply == nil && s.GridThermal == nil && s.Floorplan == nil {
		return nil
	}
	if s.GridSupply == nil || s.GridThermal == nil || s.Floorplan == nil {
		return fmt.Errorf("multicore: spatial chips need GridSupply, GridThermal and Floorplan set together")
	}
	if err := s.GridSupply.Validate(); err != nil {
		return err
	}
	if err := s.GridThermal.Validate(); err != nil {
		return err
	}
	if err := s.Floorplan.Validate(len(s.Cores)); err != nil {
		return err
	}
	if s.Floorplan.Rows != s.GridSupply.Rows || s.Floorplan.Cols != s.GridSupply.Cols ||
		s.Floorplan.Rows != s.GridThermal.Rows || s.Floorplan.Cols != s.GridThermal.Cols {
		return fmt.Errorf("multicore: floorplan grid %dx%d does not match supply grid %dx%d / thermal grid %dx%d",
			s.Floorplan.Rows, s.Floorplan.Cols, s.GridSupply.Rows, s.GridSupply.Cols, s.GridThermal.Rows, s.GridThermal.Cols)
	}
	return nil
}

// CoRunPlatform simulates N co-running cores. It implements
// platform.Platform, and its NumCores above 1 is what selects the chip
// evaluation path in stress.Run: an EvalSession derives per-core kernels
// from one knob configuration via the PHASE_OFFSET knobs.
//
// Like the single-core platforms it is not safe for concurrent use; the
// per-core fan-out inside one evaluation is internal (each core owns its
// platform instance) and folds results in core order, so evaluations are
// bit-identical at any Parallel setting.
type CoRunPlatform struct {
	spec CoRunSpec
	// identity is EvalIdentity, rendered once at build time.
	identity string
	sims     []*platform.SimPlatform
	parallel int
	// specClass[i] is the lowest core index whose spec equals core i's:
	// cores of one class may share a simulation.
	specClass []int
	// coreKeys and nodeKeys are the per-core and per-node metric names,
	// rendered once.
	coreKeys []coreKeys
	nodeKeys []nodeKeys
	// Per-evaluation scratch (the platform is single-owner, and each core
	// owns its SimPlatform, whose trace buffer backs that core's trace):
	// each core's effective clock, the index into distinct of the core
	// whose simulation it uses, the cores that simulate, their runs, every
	// core's run, and the droop-solve lanes.
	freqs    []float64
	slot     []int
	distinct []int
	simRuns  []coreRun
	runs     []coreRun
	models   []powersim.SupplyModel
	lanes    []powersim.PowerTrace
	droops   powersim.DroopLanes
	// Aggregation scratch: the traces and start skews of one sum, the
	// cores' skews in nanoseconds, the chip trace's points (a DetailTrace
	// response gets fresh ones), each grid node's points and trace, and
	// the grid solves' buffers.
	traces     []powersim.PowerTrace
	offs       []float64
	offsetsNS  []float64
	chipPoints []powersim.TracePoint
	nodePoints [][]powersim.TracePoint
	nodes      []powersim.PowerTrace
	grid       powersim.GridScratch
	// coreSims counts the core simulations the served chip evaluations ran
	// and sharedCores the cores served from another core's simulation of
	// the same evaluation, so coreSims + sharedCores is NumCores × served
	// evaluations. They are atomic so the accessors stay race-free when
	// tuners fan candidates out over per-worker co-run platforms while an
	// observer polls the counters.
	coreSims    atomic.Uint64
	sharedCores atomic.Uint64
}

// New builds a co-run platform. parallel bounds how many cores simulate
// concurrently within one evaluation (<= 1 keeps the per-core loop serial;
// results are identical either way).
func New(spec CoRunSpec, parallel int) (*CoRunPlatform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if parallel < 1 {
		parallel = 1
	}
	n := len(spec.Cores)
	c := &CoRunPlatform{spec: spec, parallel: parallel, specClass: make([]int, n), coreKeys: make([]coreKeys, n),
		freqs: make([]float64, n), slot: make([]int, n), runs: make([]coreRun, n)}
	if spec.Spatial() {
		cols, nodes := spec.Floorplan.Cols, spec.Floorplan.NodeCount()
		c.nodePoints = make([][]powersim.TracePoint, nodes)
		c.nodes = make([]powersim.PowerTrace, nodes)
		c.nodeKeys = make([]nodeKeys, nodes)
		for k := range c.nodeKeys {
			c.nodeKeys[k] = nodeKeys{droop: metrics.NodeDroopMV(k/cols, k%cols), temp: metrics.NodeTempC(k/cols, k%cols)}
		}
	}
	for i, core := range spec.Cores {
		sim, err := platform.NewSimPlatform(core)
		if err != nil {
			return nil, err
		}
		c.sims = append(c.sims, sim)
		c.coreKeys[i] = coreKeys{ipc: coreMetric(i, metrics.IPC), power: coreMetric(i, metrics.DynamicPowerW),
			droop: coreMetric(i, metrics.WorstDroopMV), freq: coreMetric(i, metrics.FreqGHz)}
		// Specs compare by identity (the power coefficients hold a map, so
		// CoreSpec has no ==).
		c.specClass[i] = slices.IndexFunc(c.sims, func(s *platform.SimPlatform) bool { return s.EvalIdentity() == sim.EvalIdentity() })
	}
	// The chip identity renders each core spec as its SimPlatform does,
	// after the "sim|" tag.
	var b strings.Builder
	fmt.Fprintf(&b, "corun|supply=%+v|thermal=%+v|offsets=%v", spec.Supply, spec.Thermal, spec.OffsetCycles)
	for i, sim := range c.sims {
		fmt.Fprintf(&b, "|core%d=%s", i, strings.TrimPrefix(sim.EvalIdentity(), "sim|"))
	}
	if spec.GridSupply != nil {
		fmt.Fprintf(&b, "|gridsupply=%+v", *spec.GridSupply)
	}
	if spec.GridThermal != nil {
		fmt.Fprintf(&b, "|gridthermal=%+v", *spec.GridThermal)
	}
	if spec.Floorplan != nil {
		fmt.Fprintf(&b, "|floorplan=%+v", *spec.Floorplan)
	}
	c.identity = b.String()
	return c, nil
}

// Name implements platform.Platform. Spatial chips carry their grid
// dimensions as a suffix ("corun-4x-small+...@2x2").
func (c *CoRunPlatform) Name() string {
	kinds := make([]string, len(c.spec.Cores))
	for i, core := range c.spec.Cores {
		kinds[i] = string(core.Kind)
	}
	name := fmt.Sprintf("corun-%dx-%s", len(kinds), strings.Join(kinds, "+"))
	if c.spec.Spatial() {
		name += fmt.Sprintf("@%dx%d", c.spec.Floorplan.Rows, c.spec.Floorplan.Cols)
	}
	return name
}

// Spec returns the platform's co-run specification.
func (c *CoRunPlatform) Spec() CoRunSpec { return c.spec }

// EvalIdentity implements platform.Identifier: the full chip specification
// — every core spec, the shared supply/thermal models, start skews, and the
// spatial grid/floorplan when configured — canonically rendered so that two
// chips built from the same spec key their evaluations identically.
// Pointer-typed spec fields are dereferenced (a rendered address would make
// every chip unique). It is rendered once, when the chip is built.
func (c *CoRunPlatform) EvalIdentity() string { return c.identity }

// NumCores returns the number of co-running cores.
func (c *CoRunPlatform) NumCores() int { return len(c.sims) }

// CoreSimulations returns the number of core simulations the served
// evaluations ran.
func (c *CoRunPlatform) CoreSimulations() uint64 { return c.coreSims.Load() }

// SharedCores returns the number of cores the served evaluations took from
// another core's simulation of the same evaluation instead of simulating.
func (c *CoRunPlatform) SharedCores() uint64 { return c.sharedCores.Load() }

// EvaluateRequest implements platform.Platform — the one evaluation path.
// The request carries one kernel per core; FreqOverrides apply per core;
// DetailTrace adds the summed chip trace. Options.Fidelity shortens every
// core's simulated window (each per-core simulator applies it), so
// reduced-fidelity chip evaluations — the successive-halving screening
// rungs — are proportionally cheaper while still producing the chip-level
// metrics a power cap constrains on.
func (c *CoRunPlatform) EvaluateRequest(req platform.EvalRequest) (platform.EvalResponse, error) {
	if len(req.Programs) == 0 {
		if !req.Config.IsZero() {
			return platform.EvalResponse{}, fmt.Errorf("multicore: %s cannot synthesize kernels from a configuration; use a platform.EvalSession", c.Name())
		}
		return platform.EvalResponse{}, fmt.Errorf("multicore: request without programs")
	}
	return c.evaluateDetailed(req.Programs, req.FreqOverrides, req.Options, req.Detail, true)
}

// EvaluateConfig evaluates one knob configuration on the chip: the shared
// kernel knobs of cfg shape every core's kernel, core i's burst schedule is
// rotated by its PHASE_OFFSET_<i> knob, and its clock overridden by its
// FREQ_GHZ_<i> knob (when present). The synthesizer is pure per call, so
// this composes with candidate-level fan-out.
//
// Deprecated: thin shim over EvaluateRequest; a platform.EvalSession serves
// Config-driven requests with synthesis memoization.
func (c *CoRunPlatform) EvaluateConfig(name string, cfg knobs.Config, syn *microprobe.Synthesizer, opts platform.EvalOptions) (metrics.Vector, error) {
	progs, err := c.SynthesizeCoRun(name, cfg, syn)
	if err != nil {
		return nil, err
	}
	resp, err := c.EvaluateRequest(platform.EvalRequest{
		Programs: progs, FreqOverrides: platform.FreqOverrides(cfg, len(c.sims)), Options: opts,
	})
	return resp.Metrics, err
}

// SynthesizeCoRun generates the per-core kernels of a knob configuration:
// one shared kernel shape, rotated per core by the PHASE_OFFSET knobs.
func (c *CoRunPlatform) SynthesizeCoRun(name string, cfg knobs.Config, syn *microprobe.Synthesizer) ([]*program.Program, error) {
	progs := make([]*program.Program, len(c.sims))
	names := make([]string, len(c.sims))
	platform.CoreKernelNames(names, name)
	if err := syn.SynthesizeCores(progs, names, cfg); err != nil {
		return nil, err
	}
	return progs, nil
}

// coreRun is one core's contribution to a chip evaluation. Cores that
// share a simulation share its run, read-only.
type coreRun struct {
	// ipc and powerW are the core's IPC and dynamic power.
	ipc, powerW float64
	// trace lives in the simulating core's platform buffer.
	trace powersim.PowerTrace
	// freqGHz is the effective clock the core ran at (spec or override).
	freqGHz float64
}

// evaluateDetailed simulates each distinct core once, fanning the
// simulations out (bit-identical to the serial loop: each core owns its
// platform and results fold in core order), sums the aligned traces and
// derives the chip metrics. Every core runs at opts.FrequencyGHz when it is
// set, else at its spec clock; freqsGHz optionally overrides per-core
// clocks on top (zero entries keep that default). share lets cores that
// would run the same simulation use one; without it every core simulates,
// which the tests use as the reference.
func (c *CoRunPlatform) evaluateDetailed(progs []*program.Program, freqsGHz []float64, opts platform.EvalOptions, detail platform.EvalDetail, share bool) (platform.EvalResponse, error) {
	if len(progs) != len(c.sims) {
		return platform.EvalResponse{}, fmt.Errorf("multicore: %d kernels for %d cores", len(progs), len(c.sims))
	}
	if freqsGHz != nil && len(freqsGHz) != len(c.sims) {
		return platform.EvalResponse{}, fmt.Errorf("multicore: %d clock overrides for %d cores", len(freqsGHz), len(c.sims))
	}
	for i, f := range freqsGHz {
		if err := platform.ValidFreqOverride(f, i); err != nil {
			return platform.EvalResponse{}, err
		}
	}
	for i, core := range c.spec.Cores {
		c.freqs[i] = core.CPU.FrequencyGHz
		if opts.FrequencyGHz > 0 {
			c.freqs[i] = opts.FrequencyGHz
		}
		if freqsGHz != nil && freqsGHz[i] > 0 {
			c.freqs[i] = freqsGHz[i]
		}
	}
	c.shareCores(progs, share)
	c.simRuns = slices.Grow(c.simRuns[:0], len(c.distinct))[:len(c.distinct)]
	sims := c.simRuns
	err := sched.Run(context.Background(), c.parallel, len(c.distinct), func(_ context.Context, j int) error {
		i := c.distinct[j]
		coreOpts := opts
		coreOpts.FrequencyGHz = c.freqs[i]
		ipc, powerW, trace, err := c.sims[i].EvaluateCore(progs[i], coreOpts)
		if err != nil {
			return fmt.Errorf("multicore: core %d: %w", i, err)
		}
		sims[j] = coreRun{ipc: ipc, powerW: powerW, trace: trace, freqGHz: c.freqs[i]}
		return nil
	})
	if err != nil {
		return platform.EvalResponse{}, err
	}
	runs := c.runs
	for i := range runs {
		runs[i] = sims[c.slot[i]]
	}

	// The chip trace is built in the chip's buffer unless the response
	// hands it out.
	windowNS, offsetsNS := c.chipWindowNS(runs), c.chipOffsetsNS(runs)
	var chipBuf []powersim.TracePoint
	if detail < platform.DetailTrace {
		chipBuf = c.chipPoints
	}
	chip, err := c.sumTraces(chipBuf, windowNS, offsetsNS, runs)
	if err != nil {
		return platform.EvalResponse{}, fmt.Errorf("multicore: summing traces: %w", err)
	}
	if detail < platform.DetailTrace {
		c.chipPoints = chip.Points
	}
	steady := chip.TrimWarmupCapped(platform.TraceWarmupWindows)

	// One laned droop solve: every distinct core's own supply on its
	// trimmed trace, plus the shared supply on the chip trace when the chip
	// is lumped.
	c.models, c.lanes = c.models[:0], c.lanes[:0]
	for j, i := range c.distinct {
		c.models = append(c.models, c.spec.Cores[i].Supply)
		c.lanes = append(c.lanes, sims[j].trace.TrimWarmupCapped(platform.TraceWarmupWindows))
	}
	if !c.spec.Spatial() {
		c.models = append(c.models, c.spec.Supply)
		c.lanes = append(c.lanes, steady)
	}
	droops := c.droops.WorstDroopsMV(c.models, c.lanes)

	v := make(metrics.Vector, 4*len(runs)+4+2*len(c.nodeKeys))
	for i, r := range runs {
		keys := &c.coreKeys[i]
		v[keys.ipc] = r.ipc
		v[keys.power] = r.powerW
		v[keys.droop] = droops[c.slot[i]]
		v[keys.freq] = r.freqGHz
	}
	v[metrics.ChipPowerW] = chip.AvgPowerW()
	v[metrics.ChipMaxDIDTWPerNS] = steady.MaxStepWPerNS()
	if c.spec.Spatial() {
		if err := c.spatialMetrics(runs, windowNS, offsetsNS, v); err != nil {
			return platform.EvalResponse{}, err
		}
	} else {
		v[metrics.ChipWorstDroopMV] = droops[len(c.distinct)]
		v[metrics.ChipTempC] = c.spec.Thermal.SteadyTempC(steady)
	}

	resp := platform.EvalResponse{Metrics: v}
	if detail >= platform.DetailTrace {
		resp.Trace = chip
	}
	// Keep no trace of this evaluation referenced until the next one.
	clear(c.simRuns)
	clear(c.runs)
	clear(c.lanes)
	// The counters move only once the response is fully assembled: they
	// count *served* chip evaluations, and the aggregation and spatial
	// solves above can still fail after the per-core simulations succeeded.
	c.coreSims.Add(uint64(len(c.distinct)))
	c.sharedCores.Add(uint64(len(runs) - len(c.distinct)))
	return resp, nil
}

// shareCores fills c.distinct with the cores that simulate and c.slot with
// each core's index into it. A core shares an earlier core's simulation
// when the two have equal specs, the same effective clock (c.freqs) and the
// same kernel content; without share every core simulates.
func (c *CoRunPlatform) shareCores(progs []*program.Program, share bool) {
	c.distinct = c.distinct[:0]
	for i := range progs {
		c.slot[i] = len(c.distinct)
		if share {
			for j, d := range c.distinct {
				if c.specClass[i] == c.specClass[d] &&
					math.Float64bits(c.freqs[i]) == math.Float64bits(c.freqs[d]) &&
					sameKernel(progs[i], progs[d]) {
					c.slot[i] = j
					break
				}
			}
		}
		if c.slot[i] == len(c.distinct) {
			c.distinct = append(c.distinct, i)
		}
	}
}

// sameKernel reports whether two kernels simulate identically: the same
// program, or field-wise equal instructions, memory streams, branch
// patterns and load addresses. Name, Meta and Notes do not reach the
// simulator.
func sameKernel(a, b *program.Program) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.CodeBase == b.CodeBase && a.DataBase == b.DataBase &&
		slices.Equal(a.Instructions, b.Instructions) &&
		slices.Equal(a.Streams, b.Streams) &&
		slices.Equal(a.Patterns, b.Patterns)
}

// spatialMetrics runs the spatial supply/thermal solvers over the per-node
// traces and folds the per-node and chip-worst transient metrics into v.
func (c *CoRunPlatform) spatialMetrics(runs []coreRun, windowNS float64, offsetsNS []float64, v metrics.Vector) error {
	nodes, err := c.nodeTraces(runs, windowNS, offsetsNS)
	if err != nil {
		return fmt.Errorf("multicore: summing node traces: %w", err)
	}
	trimNodesAligned(nodes, platform.TraceWarmupWindows)
	droops, temps, err := c.grid.Solve(*c.spec.GridSupply, *c.spec.GridThermal, nodes)
	if err != nil {
		return fmt.Errorf("multicore: spatial grid solves: %w", err)
	}
	worstDroop, worstTemp := droops[0], temps[0]
	for k := range droops {
		v[c.nodeKeys[k].droop] = droops[k]
		v[c.nodeKeys[k].temp] = temps[k]
		if droops[k] > worstDroop {
			worstDroop = droops[k]
		}
		if temps[k] > worstTemp {
			worstTemp = temps[k]
		}
	}
	v[metrics.ChipWorstDroopMV] = worstDroop
	v[metrics.ChipTempC] = worstTemp
	return nil
}

// sumTraces aggregates the per-core traces into the chip waveform on the
// nanosecond grid, in buf's storage — the single aggregation path, whatever
// the chip's clock mix.
func (c *CoRunPlatform) sumTraces(buf []powersim.TracePoint, windowNS float64, offsetsNS []float64, runs []coreRun) (powersim.PowerTrace, error) {
	c.traces = c.traces[:0]
	for _, r := range runs {
		c.traces = append(c.traces, r.trace)
	}
	return powersim.SumTracesTimeInto(buf, windowNS, offsetsNS, c.traces...)
}

// chipWindowNS sizes the nanosecond aggregation grid: the longest per-core
// window duration, so no core's trace is artificially sharpened.
func (c *CoRunPlatform) chipWindowNS(runs []coreRun) float64 {
	windowNS := 0.0
	for i, r := range runs {
		if w := float64(c.spec.Cores[i].CPU.WindowCycles) / r.freqGHz; w > windowNS {
			windowNS = w
		}
	}
	return windowNS
}

// chipOffsetsNS converts the spec's cycle-domain start skews through each
// core's effective clock, into the chip's buffer (nil when the spec has no
// skews).
func (c *CoRunPlatform) chipOffsetsNS(runs []coreRun) []float64 {
	if c.spec.OffsetCycles == nil {
		return nil
	}
	c.offsetsNS = c.offsetsNS[:0]
	for i, r := range runs {
		c.offsetsNS = append(c.offsetsNS, float64(c.spec.OffsetCycles[i])/r.freqGHz)
	}
	return c.offsetsNS
}

// nodeTraces aggregates the per-core traces onto the floorplan's grid nodes,
// each in its own node buffer: node k's trace is the SumTracesTime
// aggregate of the cores mapped onto it, on the chip trace's nanosecond
// grid and with its start skews. Nodes with no cores get an empty
// time-domain trace (an idle region). With every core on one node the
// single node trace is the chip trace, computed by the identical
// aggregation call — the arithmetic the 1×1-grid oracle test pins.
func (c *CoRunPlatform) nodeTraces(runs []coreRun, windowNS float64, offsetsNS []float64) ([]powersim.PowerTrace, error) {
	fp := c.spec.Floorplan
	for k := range c.nodes {
		c.traces, c.offs = c.traces[:0], c.offs[:0]
		for i, r := range runs {
			if fp.Nodes[i] != k {
				continue
			}
			c.traces = append(c.traces, r.trace)
			if offsetsNS != nil {
				c.offs = append(c.offs, offsetsNS[i])
			}
		}
		if len(c.traces) == 0 {
			c.nodes[k] = powersim.PowerTrace{WindowNS: windowNS}
			continue
		}
		var offs []float64
		if offsetsNS != nil {
			offs = c.offs
		}
		node, err := powersim.SumTracesTimeInto(c.nodePoints[k], windowNS, offs, c.traces...)
		if err != nil {
			return nil, err
		}
		c.nodePoints[k] = node.Points
		c.nodes[k] = node
	}
	return c.nodes, nil
}

// trimNodesAligned applies the shared warmup policy to the node traces, in
// place, without letting them fall out of time alignment: every non-empty
// node trace drops the same number of leading windows — up to n, capped at
// a quarter of the shortest non-empty node trace. With one populated node
// this is exactly PowerTrace.TrimWarmupCapped(n) of that node's trace.
func trimNodesAligned(nodes []powersim.PowerTrace, n int) {
	shortest := -1
	for _, t := range nodes {
		if !t.Empty() && (shortest < 0 || len(t.Points) < shortest) {
			shortest = len(t.Points)
		}
	}
	if shortest < 0 {
		return
	}
	if max := shortest / 4; n > max {
		n = max
	}
	for i, t := range nodes {
		if !t.Empty() {
			nodes[i] = t.TrimWarmup(n)
		}
	}
}

// coreKeys are core i's per-core metric names.
type coreKeys struct{ ipc, power, droop, freq string }

// nodeKeys are grid node k's metric names.
type nodeKeys struct{ droop, temp string }

// coreMetric names core i's copy of a per-core metric ("core0_ipc", ...).
func coreMetric(core int, name string) string {
	return fmt.Sprintf("core%d_%s", core, name)
}
