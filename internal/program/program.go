// Package program defines the in-memory representation of a synthetic test
// case: a short loop of static instructions (the paper uses ≈500) together
// with the memory-stream and branch-pattern descriptors that govern its
// dynamic behaviour.
//
// A Program is what the Microprobe-like code generator (internal/microprobe)
// produces from a knob configuration, what the trace expander
// (internal/trace) turns into a dynamic instruction stream, and what the
// emitters in this package serialize to RISC-V-flavoured assembly or to a
// self-contained C kernel for native execution.
package program

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"micrograd/internal/isa"
)

// NoStream and NoPattern mark instructions that do not reference a memory
// stream or branch pattern.
const (
	NoStream  = -1
	NoPattern = -1
)

// Instruction is one static instruction of the synthetic loop body. It is
// 24 bytes: synthesis memos keep every kernel they build, so the field
// widths are as narrow as their ranges allow, and the assembler labels and
// comments that only two instructions carry live in Program.Notes.
type Instruction struct {
	// Op is the opcode.
	Op isa.Opcode
	// Dest is the destination register; only meaningful when the opcode's
	// descriptor has HasDest set.
	Dest isa.Reg
	// Srcs are the register source operands (up to two are used).
	Srcs [2]isa.Reg
	// NumSrcs is the number of valid entries in Srcs.
	NumSrcs uint8
	// Imm is an immediate operand (branch displacement, address offset).
	Imm int64
	// Stream indexes Program.Streams for memory instructions, or NoStream.
	Stream int32
	// Pattern indexes Program.Patterns for conditional branches, or NoPattern.
	Pattern int32
}

// Note is the assembler text attached to one static instruction.
type Note struct {
	// Index is the annotated instruction's position in Program.Instructions.
	Index int
	// Label optionally names the instruction (used for the loop head).
	Label string
	// Comment is free-form text carried into the emitted assembly.
	Comment string
}

// IsMemory reports whether the instruction accesses data memory.
func (in Instruction) IsMemory() bool { return in.Op.IsMemory() }

// IsCondBranch reports whether the instruction is a conditional branch.
func (in Instruction) IsCondBranch() bool { return in.Op.IsCondBranch() }

// Class returns the instruction's class.
func (in Instruction) Class() isa.Class { return in.Op.Class() }

// MemoryStream describes one synthetic memory access stream, mirroring the
// arguments of Microprobe's GenericMemoryStreamsPass: a region of memory of a
// given footprint accessed with a fixed stride, with optional temporal
// re-use (Temp1 addresses re-visited every Temp2 bursts).
type MemoryStream struct {
	// ID is the stream's index within the program.
	ID int
	// Base is the starting virtual address of the stream's region.
	Base uint64
	// FootprintBytes is the size of the region; addresses wrap modulo this.
	FootprintBytes int
	// StrideBytes is the distance between consecutive accesses.
	StrideBytes int
	// Temp1 is the re-use burst length: after Temp2 fresh bursts, the stream
	// replays the previous Temp1 addresses (modelling temporal locality).
	Temp1 int
	// Temp2 is the re-use period, in bursts.
	Temp2 int
	// Ratio is the fraction of the program's memory accesses carried by this
	// stream (informational; the generator assigns instructions accordingly).
	Ratio float64
}

// Validate checks the stream parameters.
func (m MemoryStream) Validate() error {
	if m.FootprintBytes <= 0 {
		return fmt.Errorf("program: stream %d has non-positive footprint %d", m.ID, m.FootprintBytes)
	}
	if m.StrideBytes <= 0 {
		return fmt.Errorf("program: stream %d has non-positive stride %d", m.ID, m.StrideBytes)
	}
	if m.Temp1 < 0 || m.Temp2 < 0 {
		return fmt.Errorf("program: stream %d has negative temporal locality", m.ID)
	}
	if m.Ratio < 0 || m.Ratio > 1 {
		return fmt.Errorf("program: stream %d ratio %v outside [0,1]", m.ID, m.Ratio)
	}
	return nil
}

// BranchPattern describes the direction behaviour of the conditional
// branches that reference it: a deterministic base period with a fraction of
// directions randomized (Microprobe's RandomizeByTypePass).
type BranchPattern struct {
	// ID is the pattern's index within the program.
	ID int
	// RandomRatio is the fraction of dynamic branch instances whose direction
	// is drawn at random (1.0 = fully random, hardest to predict).
	RandomRatio float64
	// TakenBias is the probability that a randomized direction is taken, and
	// the duty cycle of the deterministic part.
	TakenBias float64
	// Period is the length of the deterministic base pattern.
	Period int
}

// Validate checks the pattern parameters.
func (b BranchPattern) Validate() error {
	if b.RandomRatio < 0 || b.RandomRatio > 1 {
		return fmt.Errorf("program: pattern %d random ratio %v outside [0,1]", b.ID, b.RandomRatio)
	}
	if b.TakenBias < 0 || b.TakenBias > 1 {
		return fmt.Errorf("program: pattern %d taken bias %v outside [0,1]", b.ID, b.TakenBias)
	}
	if b.Period <= 0 {
		return fmt.Errorf("program: pattern %d has non-positive period %d", b.ID, b.Period)
	}
	return nil
}

// Program is a complete synthetic test case: an endless loop of static
// instructions plus the descriptors needed to expand it dynamically.
type Program struct {
	// Name identifies the test case (e.g. "clone-mcf", "power-virus").
	Name string
	// Instructions is the static loop body, in program order. The final
	// instruction is the loop-closing backward branch inserted by the
	// generator.
	Instructions []Instruction
	// Streams are the memory streams referenced by memory instructions.
	Streams []MemoryStream
	// Patterns are the branch patterns referenced by conditional branches.
	Patterns []BranchPattern
	// Notes are the instructions' assembler labels and comments, sorted by
	// Index, at most one per instruction. Generated kernels annotate only
	// the loop head and the loop-closing branch.
	Notes []Note
	// CodeBase is the virtual address of the first instruction; instruction
	// i sits at CodeBase + 4*i (fixed 4-byte encoding).
	CodeBase uint64
	// DataBase is the base virtual address of the data region; streams are
	// laid out starting here.
	DataBase uint64
	// Meta carries free-form generation metadata (knob values, seed, use
	// case) into reports and emitted kernels.
	Meta map[string]string
}

// DefaultCodeBase and DefaultDataBase are the load addresses used by the
// generator when the caller does not specify any.
const (
	DefaultCodeBase = 0x0001_0000
	DefaultDataBase = 0x1000_0000
)

// InstrBytes is the fixed encoded size of one instruction.
const InstrBytes = 4

// New returns an empty program with default load addresses.
func New(name string) *Program {
	return &Program{
		Name:     name,
		CodeBase: DefaultCodeBase,
		DataBase: DefaultDataBase,
		Meta:     make(map[string]string),
	}
}

// StaticCount returns the number of static instructions.
func (p *Program) StaticCount() int { return len(p.Instructions) }

// PC returns the virtual address of static instruction i.
func (p *Program) PC(i int) uint64 { return p.CodeBase + uint64(i)*InstrBytes }

// CodeBytes returns the total encoded size of the loop body.
func (p *Program) CodeBytes() int { return len(p.Instructions) * InstrBytes }

// Note returns the label and comment of instruction i (empty when it has
// none).
func (p *Program) Note(i int) Note {
	if j, ok := p.noteIndex(i); ok {
		return p.Notes[j]
	}
	return Note{Index: i}
}

// SetLabel sets the label of instruction i; an empty label removes it.
func (p *Program) SetLabel(i int, label string) {
	n := p.Note(i)
	n.Label = label
	p.setNote(n)
}

// SetComment sets the comment of instruction i; an empty comment removes it.
func (p *Program) SetComment(i int, comment string) {
	n := p.Note(i)
	n.Comment = comment
	p.setNote(n)
}

// noteIndex finds instruction i's note in the sorted Notes.
func (p *Program) noteIndex(i int) (int, bool) {
	return slices.BinarySearchFunc(p.Notes, i, func(n Note, i int) int { return cmp.Compare(n.Index, i) })
}

// setNote stores n in sorted position, dropping it when it is empty.
func (p *Program) setNote(n Note) {
	j, found := p.noteIndex(n.Index)
	switch {
	case n.Label == "" && n.Comment == "":
		if found {
			p.Notes = slices.Delete(p.Notes, j, j+1)
		}
	case found:
		p.Notes[j] = n
	default:
		p.Notes = slices.Insert(p.Notes, j, n)
	}
}

// FootprintBytes returns the total data footprint across all streams.
func (p *Program) FootprintBytes() int {
	total := 0
	for _, s := range p.Streams {
		total += s.FootprintBytes
	}
	return total
}

// StaticMix returns the fraction of static instructions per class
// (ClassNop included if present). Fractions sum to 1 for non-empty programs.
func (p *Program) StaticMix() map[isa.Class]float64 {
	counts := make(map[isa.Class]int)
	for _, in := range p.Instructions {
		counts[in.Class()]++
	}
	out := make(map[isa.Class]float64, len(counts))
	if len(p.Instructions) == 0 {
		return out
	}
	n := float64(len(p.Instructions))
	for c, k := range counts {
		out[c] = float64(k) / n
	}
	return out
}

// Validate checks structural well-formedness: stream/pattern references in
// range, valid opcodes and registers, memory instructions have streams,
// conditional branches (other than the loop-closing one) have patterns, and
// the program ends with a control transfer back to the loop head.
func (p *Program) Validate() error {
	if len(p.Instructions) == 0 {
		return fmt.Errorf("program %q: empty instruction list", p.Name)
	}
	for i, s := range p.Streams {
		if s.ID != i {
			return fmt.Errorf("program %q: stream %d has ID %d", p.Name, i, s.ID)
		}
		if err := s.Validate(); err != nil {
			return err
		}
	}
	for i, b := range p.Patterns {
		if b.ID != i {
			return fmt.Errorf("program %q: pattern %d has ID %d", p.Name, i, b.ID)
		}
		if err := b.Validate(); err != nil {
			return err
		}
	}
	for i, in := range p.Instructions {
		if !in.Op.Valid() {
			return fmt.Errorf("program %q: instruction %d has invalid opcode", p.Name, i)
		}
		d := isa.Describe(in.Op)
		if d.HasDest && !in.Dest.Valid() {
			return fmt.Errorf("program %q: instruction %d (%v) has invalid dest", p.Name, i, in.Op)
		}
		if in.NumSrcs > 2 {
			return fmt.Errorf("program %q: instruction %d has NumSrcs %d", p.Name, i, in.NumSrcs)
		}
		for s := 0; s < int(in.NumSrcs); s++ {
			if !in.Srcs[s].Valid() {
				return fmt.Errorf("program %q: instruction %d (%v) has invalid src %d", p.Name, i, in.Op, s)
			}
		}
		if in.IsMemory() {
			if in.Stream < 0 || int(in.Stream) >= len(p.Streams) {
				return fmt.Errorf("program %q: memory instruction %d references stream %d of %d", p.Name, i, in.Stream, len(p.Streams))
			}
		} else if in.Stream != NoStream {
			return fmt.Errorf("program %q: non-memory instruction %d references stream %d", p.Name, i, in.Stream)
		}
		if in.IsCondBranch() && i != len(p.Instructions)-1 {
			if in.Pattern < 0 || int(in.Pattern) >= len(p.Patterns) {
				return fmt.Errorf("program %q: branch instruction %d references pattern %d of %d", p.Name, i, in.Pattern, len(p.Patterns))
			}
		}
	}
	for j, n := range p.Notes {
		if n.Index < 0 || n.Index >= len(p.Instructions) {
			return fmt.Errorf("program %q: note on instruction %d of %d", p.Name, n.Index, len(p.Instructions))
		}
		if j > 0 && n.Index <= p.Notes[j-1].Index {
			return fmt.Errorf("program %q: notes out of order at instruction %d", p.Name, n.Index)
		}
	}
	last := p.Instructions[len(p.Instructions)-1]
	if !last.Op.IsBranch() {
		return fmt.Errorf("program %q: last instruction (%v) is not the loop-closing branch", p.Name, last.Op)
	}
	return nil
}

// String returns a short human-readable summary.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q: %d static instructions, %d streams, %d patterns, %d B footprint",
		p.Name, len(p.Instructions), len(p.Streams), len(p.Patterns), p.FootprintBytes())
	return b.String()
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	out := &Program{
		Name:     p.Name,
		CodeBase: p.CodeBase,
		DataBase: p.DataBase,
	}
	out.Instructions = append([]Instruction(nil), p.Instructions...)
	out.Streams = append([]MemoryStream(nil), p.Streams...)
	out.Patterns = append([]BranchPattern(nil), p.Patterns...)
	out.Notes = append([]Note(nil), p.Notes...)
	out.Meta = make(map[string]string, len(p.Meta))
	for k, v := range p.Meta {
		out.Meta[k] = v
	}
	return out
}
