// Package cpusim implements the trace-driven out-of-order core timing model
// that stands in for the Gem5 performance simulator in this reproduction.
//
// The model is a scoreboard-style approximation of an out-of-order core:
// instructions from the dynamic trace are dispatched in order subject to the
// front-end width, reorder-buffer, load/store-queue and reservation-station
// occupancy limits; they issue when their register sources are ready and a
// functional unit of the right kind is free; loads and stores pay the cache
// hierarchy latency reported by internal/memsim; mispredicted branches
// (decided by internal/branchsim) squash the front end for a fixed penalty.
// This keeps the model fast enough to sit inside a tuning loop that runs
// thousands of evaluations while preserving the sensitivities that MicroGrad's
// knobs exercise: instruction mix, dependency distance, memory locality and
// branch predictability.
//
// A CPU owns reusable per-run scratch — the scoreboard ring buffers, the
// window accumulators, the trace expander and a per-program predecode table —
// so that back-to-back RunShared calls (the shape of every tuning loop)
// allocate almost nothing and never touch the isa descriptor table on the
// per-instruction hot path.
package cpusim

import (
	"fmt"

	"micrograd/internal/branchsim"
	"micrograd/internal/isa"
	"micrograd/internal/memsim"
	"micrograd/internal/program"
	"micrograd/internal/trace"
)

// Config describes the core microarchitecture (the paper's Table II).
type Config struct {
	// Name identifies the core ("small", "large").
	Name string
	// FrequencyGHz is the core clock, used for power estimation.
	FrequencyGHz float64
	// FrontEndWidth is the fetch/dispatch/retire width.
	FrontEndWidth int
	// ROBSize is the reorder buffer capacity.
	ROBSize int
	// LSQSize is the load/store queue capacity.
	LSQSize int
	// RSESize is the reservation station (scheduler) capacity.
	RSESize int
	// NumALU, NumMul, NumFP, NumLSU are functional unit counts. NumMul
	// corresponds to the paper's SIMD/complex pipes.
	NumALU int
	NumMul int
	NumFP  int
	NumLSU int
	// MispredictPenalty is the front-end refill penalty in cycles after a
	// mispredicted branch resolves.
	MispredictPenalty int
	// WindowCycles partitions the run into fixed-length activity windows of
	// this many cycles and records per-window statistics in Result.Windows,
	// the raw material for transient power analyses (dI/dt, voltage droop,
	// thermal). Zero disables window bookkeeping; it never affects timing.
	WindowCycles int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FrequencyGHz <= 0 {
		return fmt.Errorf("cpusim: non-positive frequency")
	}
	if c.FrontEndWidth <= 0 {
		return fmt.Errorf("cpusim: non-positive front-end width")
	}
	if c.ROBSize <= 0 {
		return fmt.Errorf("cpusim: non-positive ROB size")
	}
	if c.LSQSize <= 0 {
		return fmt.Errorf("cpusim: non-positive LSQ size")
	}
	if c.RSESize <= 0 {
		return fmt.Errorf("cpusim: non-positive RSE size")
	}
	if c.NumALU <= 0 || c.NumMul <= 0 || c.NumFP <= 0 || c.NumLSU <= 0 {
		return fmt.Errorf("cpusim: every functional unit class needs at least one unit")
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("cpusim: negative mispredict penalty")
	}
	if c.WindowCycles < 0 {
		return fmt.Errorf("cpusim: negative activity-window length")
	}
	return nil
}

// Window holds the activity of one fixed-length cycle window of a run.
// Instructions and their events are attributed to the window containing
// their completion (execution) cycle — not their retire cycle — so that a
// dependency-stalled stretch shows the functional units' actual energy flow
// instead of an artificial retirement burst. Prefetch fills are attributed
// to the window of the demand access that triggered them, so summing the
// windows' event counts reproduces the run's aggregate L2 (demand plus
// prefetch), memory and misprediction statistics exactly.
type Window struct {
	// Cycles is the window length; the final window of a run may be shorter.
	Cycles uint64
	// Instructions is the number of instructions that completed execution in
	// the window.
	Instructions uint64
	// ClassCounts counts completed instructions per class, indexed by
	// isa.Class.
	ClassCounts [isa.NumClasses]uint64
	// L2Accesses counts L2 accesses (demand plus prefetch fills).
	L2Accesses uint64
	// MemAccesses counts accesses that reached main memory.
	MemAccesses uint64
	// Mispredicts counts branch mispredictions.
	Mispredicts uint64
}

// Result holds the statistics of one simulation run.
type Result struct {
	// Instructions is the number of dynamic instructions simulated.
	Instructions uint64
	// Cycles is the number of cycles the run took.
	Cycles uint64
	// ClassCounts counts dynamic instructions per class, indexed by
	// isa.Class. It is a fixed-size array (not a map) so results carry no
	// per-run allocations and iterate in deterministic class order.
	ClassCounts [isa.NumClasses]uint64
	// L1I, L1D, L2 are the cache statistics of the run.
	L1I, L1D, L2 memsim.Stats
	// Branch is the branch predictor statistics of the run.
	Branch branchsim.Stats
	// MemAccesses is the number of accesses that reached main memory
	// (L2 demand misses), used by the power model's DRAM term.
	MemAccesses uint64
	// Windows is the per-window activity breakdown of the run, present when
	// Config.WindowCycles > 0. Windows are contiguous, in cycle order, and
	// their Cycles/Instructions sum to the run totals.
	Windows []Window
	// Config echoes the core configuration of the run.
	Config Config
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// ClassFraction returns the dynamic fraction of the given class.
func (r Result) ClassFraction(c isa.Class) float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.ClassCounts[c]) / float64(r.Instructions)
}

// staticOp is the predecoded form of one static instruction: the descriptor
// fields the scoreboard needs, flattened so the hot loop never copies
// program.Instruction or isa.Descriptor values.
type staticOp struct {
	latency  uint64
	srcs     [2]uint16
	dest     uint16
	numSrcs  uint8
	class    isa.Class
	unit     isa.UnitKind
	isMem    bool
	isCondBr bool
	hasDest  bool
	// longOp marks non-pipelined operations (DIV, FDIVD) that occupy their
	// unit for the full latency.
	longOp bool
}

// CPU ties a core configuration to its cache hierarchy and branch predictor.
// It owns reusable per-run scratch, so a CPU (like the hierarchy and the
// predictor it wraps) is not safe for concurrent use.
type CPU struct {
	cfg  Config
	mem  *memsim.Hierarchy
	pred *branchsim.Predictor

	// Per-run scratch, reset by RunShared.
	st coreState
	wt windowTracker

	// Predecode table of the most recent program; rebuilt when the program
	// identity or static length changes.
	ops      []staticOp
	lastProg *program.Program
	lastLen  int
}

// New builds a CPU. The hierarchy and predictor are owned by the CPU for the
// duration of a run; RunShared resets them before simulating.
func New(cfg Config, mem *memsim.Hierarchy, pred *branchsim.Predictor) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil || pred == nil {
		return nil, fmt.Errorf("cpusim: nil memory hierarchy or branch predictor")
	}
	c := &CPU{cfg: cfg, mem: mem, pred: pred}
	c.st.init(cfg)
	c.wt.init(uint64(cfg.WindowCycles))
	return c, nil
}

// predecode (re)builds the static-instruction table for p.
func (c *CPU) predecode(p *program.Program) {
	n := len(p.Instructions)
	if cap(c.ops) < n {
		c.ops = make([]staticOp, n)
	}
	c.ops = c.ops[:n]
	for i := range p.Instructions {
		in := &p.Instructions[i]
		d := isa.Describe(in.Op)
		op := &c.ops[i]
		*op = staticOp{
			latency:  uint64(d.Latency),
			dest:     uint16(in.Dest.ID()),
			numSrcs:  uint8(in.NumSrcs),
			class:    d.Class,
			unit:     d.Unit,
			isMem:    d.Class == isa.ClassLoad || d.Class == isa.ClassStore,
			isCondBr: d.IsCondBr,
			hasDest:  d.HasDest,
			longOp:   in.Op == isa.DIV || in.Op == isa.FDIVD,
		}
		for s := 0; s < int(in.NumSrcs) && s < len(in.Srcs); s++ {
			op.srcs[s] = uint16(in.Srcs[s].ID())
		}
	}
	c.lastProg = p
	c.lastLen = n
}

// RunShared simulates dynInstrs dynamic instructions of the program and
// returns the collected statistics. The seed drives the trace expander's
// stochastic branch directions; the timing model itself is deterministic.
// The returned Result's Windows alias the CPU's reusable scratch: the slice
// is valid only until the next RunShared call.
func (c *CPU) RunShared(p *program.Program, dynInstrs int, seed int64) (Result, error) {
	if dynInstrs <= 0 {
		return Result{}, fmt.Errorf("cpusim: non-positive dynamic instruction count %d", dynInstrs)
	}
	c.mem.Reset()
	c.pred.Reset()
	// A program already predecoded by this CPU was validated then; only new
	// programs pay the validation walk.
	if c.lastProg != p || c.lastLen != len(p.Instructions) {
		if err := p.Validate(); err != nil {
			return Result{}, fmt.Errorf("cpusim: invalid program: %w", err)
		}
		c.predecode(p)
	}

	res := Result{Config: c.cfg}

	exp := trace.Reuse(&c.st.exp, p, seed)
	st := &c.st
	st.reset()

	windowed := c.cfg.WindowCycles > 0
	wt := &c.wt
	if windowed {
		wt.reset()
	}

	// Hoisted per-run constants: the hierarchy configuration never changes
	// mid-run, and the L2 counters are read through cheap accessors instead
	// of whole-struct snapshots.
	l1iHitLat := c.mem.Config().L1I.HitLatency
	l2 := c.mem.L2()

	// In the windowed case the per-class totals are recovered by summing the
	// window counts after the run (observe already attributes every
	// instruction to a window), saving one counter update per instruction.
	var entry trace.Entry
	if windowed {
		for i := 0; i < dynInstrs; i++ {
			exp.NextInto(&entry)
			op := &c.ops[entry.Static]
			wt.observe(c.step(st, op, &entry, l1iHitLat), op.class)
		}
	} else {
		for i := 0; i < dynInstrs; i++ {
			exp.NextInto(&entry)
			op := &c.ops[entry.Static]
			res.ClassCounts[op.class]++
			c.step(st, op, &entry, l1iHitLat)
		}
	}

	res.Instructions = uint64(dynInstrs)
	res.Cycles = st.lastRetire
	if res.Cycles == 0 {
		res.Cycles = 1
	}
	res.L1I = c.mem.L1I().Stats()
	res.L1D = c.mem.L1D().Stats()
	res.L2 = l2.Stats()
	res.Branch = c.pred.Stats()
	res.MemAccesses = res.L2.Misses
	if windowed {
		res.Windows = wt.finish(st.lastRetire)
		for i := range res.Windows {
			w := &res.Windows[i]
			for cl, n := range w.ClassCounts {
				res.ClassCounts[cl] += n
			}
		}
	}
	return res, nil
}

// stepEvents is what one instruction did, as reported by the scoreboard:
// when its execution completed and which energy-relevant events it caused.
type stepEvents struct {
	complete   uint64
	l2, mem    uint8 // number of L2 / main-memory accesses (fetch + data + triggered prefetch)
	mispredict bool
}

// windowTracker accumulates per-window activity during a run. Attribution is
// by completion cycle, which is not monotonic across instructions (a ready
// ALU operation completes while an older divide chain is still executing),
// so windows are kept addressable until the run ends. The wins scratch is
// reused across runs, and finish hands it out until the next run.
type windowTracker struct {
	size uint64
	// shift is the power-of-two shortcut for the per-instruction division
	// (size == 1<<shift); 0 when size is not a power of two.
	shift uint
	pow2  bool
	wins  []Window
}

func (w *windowTracker) init(size uint64) {
	w.size = size
	if size > 0 && size&(size-1) == 0 {
		w.pow2 = true
		for s := size; s > 1; s >>= 1 {
			w.shift++
		}
	}
}

func (w *windowTracker) reset() { w.wins = w.wins[:0] }

// observe attributes one instruction and its events to the window containing
// its completion cycle.
func (w *windowTracker) observe(ev stepEvents, class isa.Class) {
	var idx int
	if w.pow2 {
		idx = int((ev.complete - 1) >> w.shift)
	} else {
		idx = int((ev.complete - 1) / w.size)
	}
	for len(w.wins) <= idx {
		w.wins = append(w.wins, Window{})
	}
	win := &w.wins[idx]
	win.Instructions++
	win.ClassCounts[class]++
	win.L2Accesses += uint64(ev.l2)
	win.MemAccesses += uint64(ev.mem)
	if ev.mispredict {
		win.Mispredicts++
	}
}

// finish sizes the window sequence to cover the whole run and fills in the
// window lengths (the final window may be partial). It returns the scratch
// itself, valid until the next run.
func (w *windowTracker) finish(lastRetire uint64) []Window {
	if lastRetire == 0 {
		return nil
	}
	n := int((lastRetire + w.size - 1) / w.size)
	for len(w.wins) < n {
		w.wins = append(w.wins, Window{})
	}
	for i := range w.wins {
		w.wins[i].Cycles = w.size
	}
	if tail := lastRetire - uint64(n-1)*w.size; tail > 0 {
		w.wins[n-1].Cycles = tail
	}
	return w.wins
}

// coreState is the per-run scoreboard. It is embedded in the CPU and reset
// between runs, so the ring buffers and unit timetables are allocated once.
type coreState struct {
	cfg Config

	// exp is the reusable trace expander.
	exp trace.Expander

	// dispatchCycle is the cycle the next instruction dispatches in;
	// dispatched counts instructions already dispatched that cycle.
	dispatchCycle uint64
	dispatched    int

	// fetchReady is the earliest cycle the front end can deliver the next
	// instruction (advanced by I-cache misses and branch mispredictions).
	fetchReady uint64

	// regReady maps architectural register IDs to the cycle their latest
	// value becomes available.
	regReady [isa.TotalRegs]uint64

	// unitFree tracks, per functional-unit kind, when each unit can accept a
	// new operation.
	unitFree [isa.NumUnitKinds][]uint64

	// rob and lsq are ring buffers of retire/completion cycles used to model
	// window occupancy limits.
	rob    []uint64
	robPos int
	lsq    []uint64
	lsqPos int
	// rse models the scheduler: issue cycles of the most recent RSESize
	// instructions; an instruction cannot dispatch before the oldest of them
	// has issued.
	rse    []uint64
	rsePos int

	lastRetire uint64
	prevRetire uint64
}

// init allocates the scoreboard's buffers once for a configuration.
func (st *coreState) init(cfg Config) {
	st.cfg = cfg
	st.unitFree[isa.UnitALU] = make([]uint64, cfg.NumALU)
	st.unitFree[isa.UnitMul] = make([]uint64, cfg.NumMul)
	st.unitFree[isa.UnitFP] = make([]uint64, cfg.NumFP)
	st.unitFree[isa.UnitLSU] = make([]uint64, cfg.NumLSU)
	st.unitFree[isa.UnitNone] = nil
	st.rob = make([]uint64, cfg.ROBSize)
	st.lsq = make([]uint64, cfg.LSQSize)
	st.rse = make([]uint64, cfg.RSESize)
	st.reset()
}

// reset returns the scoreboard to its start-of-run state.
func (st *coreState) reset() {
	st.dispatchCycle = 1
	st.dispatched = 0
	st.fetchReady = 1
	for i := range st.regReady {
		st.regReady[i] = 0
	}
	for u := range st.unitFree {
		units := st.unitFree[u]
		for i := range units {
			units[i] = 0
		}
	}
	zero(st.rob)
	zero(st.lsq)
	zero(st.rse)
	st.robPos, st.lsqPos, st.rsePos = 0, 0, 0
	st.lastRetire = 0
	st.prevRetire = 0
}

func zero(s []uint64) {
	for i := range s {
		s[i] = 0
	}
}

// step advances the scoreboard by one dynamic instruction and reports the
// instruction's completion cycle and energy-relevant events.
func (c *CPU) step(st *coreState, op *staticOp, entry *trace.Entry, l1iHitLat int) stepEvents {
	cfg := &st.cfg
	var ev stepEvents

	// Front end: instruction fetch through the I-cache. A miss delays
	// delivery of this (and following) instructions. Like the data path
	// below, L2/memory events are reported by the hierarchy itself, keeping
	// the window attribution exact for any hierarchy configuration. A fetch
	// to the same line as the previous one (the common sequential case) is
	// an L1I hit by construction and takes the inlined fast path.
	if !c.mem.FastFetchHit(entry.PC) {
		fetchLat, fL2, fMem := c.mem.AccessInstrEv(entry.PC)
		if extra := fetchLat - l1iHitLat; extra > 0 {
			st.fetchReady += uint64(extra)
		}
		ev.l2 = fL2
		ev.mem = fMem
	}

	// Dispatch: bounded by front-end width, fetch availability, and window
	// occupancy (ROB / RSE, plus LSQ for memory operations).
	dispatch := st.dispatchCycle
	if st.fetchReady > dispatch {
		dispatch = st.fetchReady
		st.dispatchCycle = dispatch
		st.dispatched = 0
	}
	if oldest := st.rob[st.robPos]; oldest > dispatch {
		dispatch = oldest
		st.dispatchCycle = dispatch
		st.dispatched = 0
	}
	if oldest := st.rse[st.rsePos]; oldest > dispatch {
		dispatch = oldest
		st.dispatchCycle = dispatch
		st.dispatched = 0
	}
	if op.isMem {
		if oldest := st.lsq[st.lsqPos]; oldest > dispatch {
			dispatch = oldest
			st.dispatchCycle = dispatch
			st.dispatched = 0
		}
	}

	// Issue: wait for sources and a free functional unit.
	ready := dispatch
	for s := uint8(0); s < op.numSrcs; s++ {
		if r := st.regReady[op.srcs[s]]; r > ready {
			ready = r
		}
	}
	issue := ready
	if units := st.unitFree[op.unit]; len(units) > 0 {
		best := 0
		bestFree := units[0]
		for u := 1; u < len(units); u++ {
			if units[u] < bestFree {
				best = u
				bestFree = units[u]
			}
		}
		if bestFree > issue {
			issue = bestFree
		}
		// Pipelined units accept one operation per cycle; long-latency
		// dividers block their unit for the full latency.
		occupancy := uint64(1)
		if op.longOp {
			occupancy = op.latency
		}
		units[best] = issue + occupancy
	}

	// Execute: latency is the opcode latency, or the cache latency for
	// memory operations. L2/memory events are read off the cache counters
	// rather than inferred from latency, and prefetch fills are charged to
	// the access that triggered them. Both keep windowed energy reconciled
	// with the aggregate model exactly.
	latency := op.latency
	if op.isMem {
		dataLat, dL2, dMem, dPref := c.mem.AccessDataEv(entry.Addr)
		latency = uint64(dataLat)
		ev.l2 += dL2 + dPref
		ev.mem += dMem
	}
	complete := issue + latency
	ev.complete = complete

	// Branch resolution: a mispredicted conditional branch stalls the front
	// end until it resolves plus the refill penalty.
	if op.isCondBr {
		if c.pred.Predict(entry.PC, entry.Taken) {
			ev.mispredict = true
			redirect := complete + uint64(cfg.MispredictPenalty)
			if redirect > st.fetchReady {
				st.fetchReady = redirect
			}
		}
	}

	// Writeback.
	if op.hasDest {
		st.regReady[op.dest] = complete
	}

	// Retire in order.
	retire := complete
	if st.prevRetire > retire {
		retire = st.prevRetire
	}
	st.prevRetire = retire
	st.lastRetire = retire

	// Window bookkeeping.
	st.rob[st.robPos] = retire
	st.robPos++
	if st.robPos == len(st.rob) {
		st.robPos = 0
	}
	st.rse[st.rsePos] = issue
	st.rsePos++
	if st.rsePos == len(st.rse) {
		st.rsePos = 0
	}
	if op.isMem {
		st.lsq[st.lsqPos] = complete
		st.lsqPos++
		if st.lsqPos == len(st.lsq) {
			st.lsqPos = 0
		}
	}

	// Advance the dispatch slot within the front-end width.
	st.dispatched++
	if st.dispatched >= cfg.FrontEndWidth {
		st.dispatchCycle = dispatch + 1
		st.dispatched = 0
	} else {
		st.dispatchCycle = dispatch
	}
	return ev
}
