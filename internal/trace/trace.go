// Package trace expands a static synthetic program (internal/program) into a
// dynamic instruction stream: the sequence of executed instructions with
// concrete memory addresses and branch directions. The timing
// (internal/cpusim), cache (internal/memsim) and branch-prediction
// (internal/branchsim) models all consume this stream.
//
// Expansion is deterministic given (program, seed): every stochastic choice
// (randomized branch directions) is drawn from a rand.Rand owned by the
// expander. An Expander is reusable: Reuse re-arms one in place for a new
// (program, seed) pair without reallocating its stream, pattern or RNG
// state, which is what keeps repeated evaluations allocation-free.
package trace

import (
	"math/rand"

	"micrograd/internal/program"
)

// Entry is one dynamic instruction instance.
type Entry struct {
	// Static is the index of the instruction in Program.Instructions.
	Static int
	// PC is the instruction's virtual address.
	PC uint64
	// Addr is the data address accessed, valid only for memory instructions.
	Addr uint64
	// Bytes is the data access width in bytes (0 for non-memory).
	Bytes int
	// Taken is the branch direction, valid only for branches.
	Taken bool
}

// streamState tracks the address-generation state of one memory stream.
type streamState struct {
	stream program.MemoryStream
	offset int      // next fresh offset within the footprint
	fresh  int      // fresh accesses emitted in the current period
	replay int      // replayed accesses emitted in the current replay burst
	window []uint64 // recently issued fresh addresses (capacity Temp1)
	wpos   int
}

// next returns the next address for the stream, honouring stride, footprint
// wrap-around and temporal re-use: after Temp2 fresh strided accesses the
// stream replays the last Temp1 addresses before continuing. Re-use is only
// engaged for Temp1 >= 2 — a window of a single address would degenerate
// into alternating fresh/replay and make a pure streaming pattern
// unreachable from the knob space.
func (s *streamState) next() uint64 {
	st := &s.stream
	// Replay phase: re-issue recorded addresses. The window index only needs
	// a real modulo while the window is still shorter than Temp1; once it is
	// full the replay counter is already in range.
	if st.Temp1 >= 2 && s.fresh >= st.Temp2 && len(s.window) > 0 && s.replay < st.Temp1 {
		idx := s.replay
		if idx >= len(s.window) {
			idx %= len(s.window)
		}
		addr := s.window[idx]
		s.replay++
		if s.replay >= st.Temp1 {
			s.fresh = 0
			s.replay = 0
		}
		return addr
	}
	// Fresh phase: strided access.
	addr := st.Base + uint64(s.offset)
	s.offset += st.StrideBytes
	if s.offset >= st.FootprintBytes {
		s.offset = 0
	}
	s.fresh++
	if st.Temp1 > 0 {
		if len(s.window) < st.Temp1 && len(s.window) < 1024 {
			s.window = append(s.window, addr)
		} else if len(s.window) > 0 {
			// wpos stays in [0, len): it only ever advances by one past a
			// full window, so a compare-and-reset replaces the modulo.
			s.window[s.wpos] = addr
			s.wpos++
			if s.wpos >= len(s.window) {
				s.wpos = 0
			}
		}
	}
	return addr
}

// patternState tracks the direction-generation state of one branch pattern.
// period and threshold are precomputed so next carries no division: phase is
// kept in [0, period) with a compare-and-reset, which yields the same residue
// the historical count%period produced.
type patternState struct {
	pattern   program.BranchPattern
	phase     int
	period    int
	threshold float64
}

// initDerived fills in the precomputed fields from the pattern.
func (p *patternState) initDerived() {
	p.period = p.pattern.Period
	if p.period <= 0 {
		p.period = 1
	}
	p.threshold = p.pattern.TakenBias * float64(p.period)
}

// next returns the next direction for the pattern.
func (p *patternState) next(rng *rand.Rand) bool {
	phase := p.phase
	p.phase++
	if p.phase >= p.period {
		p.phase = 0
	}
	if p.pattern.RandomRatio > 0 && rng.Float64() < p.pattern.RandomRatio {
		return rng.Float64() < p.pattern.TakenBias
	}
	// Deterministic duty-cycle pattern: taken for the first
	// TakenBias*Period slots of each period.
	return float64(phase) < p.threshold
}

// Entry kinds precomputed per static instruction, so NextInto never
// re-derives opcode properties (or copies instruction structs) on the hot
// path. Each kind writes exactly the Entry fields it owns; kindPlain
// instructions leave Addr/Bytes/Taken untouched because no consumer reads
// them (a conditional branch without a pattern gets kindCondNoPat so Taken
// is still cleared).
const (
	kindPlain     uint8 = iota // no address, no direction
	kindMem                    // memory access: address + width
	kindPattern                // conditional branch driven by a pattern
	kindLoopClose              // the loop-closing back edge: always taken
	kindCondNoPat              // conditional branch without a pattern: never taken
)

// staticMeta is the predecoded per-static-instruction expansion recipe.
type staticMeta struct {
	kind  uint8
	bytes int32 // access width for kindMem
	index int32 // stream (kindMem) or pattern (kindPattern) index
	pc    uint64
}

// Expander produces the dynamic instruction stream of a program.
type Expander struct {
	prog     *program.Program
	rng      *rand.Rand
	src      rand.Source
	streams  []streamState
	patterns []patternState
	meta     []staticMeta
	pos      int
}

// Reuse arms an expander for (p, seed), positioned at the first
// instruction. A zero Expander is ready to arm; re-arming one in place
// reuses its allocations, and the result is bit-identical to arming a fresh
// one.
func Reuse(e *Expander, p *program.Program, seed int64) *Expander {
	if e.rng == nil {
		e.src = rand.NewSource(seed)
		e.rng = rand.New(e.src)
	} else {
		e.src.Seed(seed)
	}
	e.prog = p
	e.pos = 0

	if cap(e.streams) < len(p.Streams) {
		e.streams = make([]streamState, len(p.Streams))
	}
	e.streams = e.streams[:len(p.Streams)]
	for i, s := range p.Streams {
		win := e.streams[i].window[:0]
		e.streams[i] = streamState{stream: s, window: win}
	}

	if cap(e.patterns) < len(p.Patterns) {
		e.patterns = make([]patternState, len(p.Patterns))
	}
	e.patterns = e.patterns[:len(p.Patterns)]
	for i, b := range p.Patterns {
		e.patterns[i] = patternState{pattern: b}
		e.patterns[i].initDerived()
	}

	n := len(p.Instructions)
	if cap(e.meta) < n {
		e.meta = make([]staticMeta, n)
	}
	e.meta = e.meta[:n]
	for i := range p.Instructions {
		in := &p.Instructions[i]
		m := staticMeta{kind: kindPlain, pc: p.PC(i)}
		switch {
		case in.IsMemory():
			m.kind = kindMem
			m.index = int32(in.Stream)
			m.bytes = int32(in.Op.MemBytes())
		case in.Op.IsBranch():
			if i == n-1 {
				m.kind = kindLoopClose
			} else if in.IsCondBranch() {
				if in.Pattern >= 0 && int(in.Pattern) < len(p.Patterns) {
					m.kind = kindPattern
					m.index = int32(in.Pattern)
				} else {
					m.kind = kindCondNoPat
				}
			}
		}
		e.meta[i] = m
	}
	return e
}

// NextInto writes the next dynamic instruction into entry. The program
// loops endlessly, so the expander never runs out.
func (e *Expander) NextInto(entry *Entry) {
	m := &e.meta[e.pos]
	entry.Static = e.pos
	entry.PC = m.pc
	switch m.kind {
	case kindMem:
		entry.Addr = e.streams[m.index].next()
		entry.Bytes = int(m.bytes)
	case kindPattern:
		entry.Taken = e.patterns[m.index].next(e.rng)
	case kindLoopClose:
		entry.Taken = true
	case kindCondNoPat:
		entry.Taken = false
	}
	e.pos++
	if e.pos >= len(e.meta) {
		e.pos = 0
	}
}
