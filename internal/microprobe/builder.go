// Package microprobe is the code-generation back-end of MicroGrad-Go. It
// reimplements, in Go and over the abstract ISA of internal/isa, the subset
// of IBM's Microprobe framework that the MicroGrad paper relies on: a
// sequence of code-synthesis passes (the paper's Listing 2) that turn an
// abstract workload description — instruction profile, register dependency
// distance, memory streams, branch randomization — into a concrete synthetic
// test case (internal/program.Program).
//
// The package exposes the same two levels Microprobe does:
//
//   - a pass-level API (Builder + Pass implementations) for callers that want
//     to assemble custom generation pipelines, and
//   - a Synthesizer that runs the standard MicroGrad pass ordering for a knob
//     configuration (internal/knobs.Settings), which is what the tuning
//     mechanism uses.
package microprobe

import (
	"fmt"
	"math/rand"

	"micrograd/internal/isa"
	"micrograd/internal/program"
)

// Builder is the mutable state threaded through a pass pipeline. A Builder
// owns the program being constructed plus bookkeeping that later passes need
// (the reserved registers) and the passes' working memory, which a
// Synthesizer reuses from one synthesis to the next.
type Builder struct {
	prog *program.Program
	rng  *rand.Rand

	reserved [isa.TotalRegs]bool // by register ID: registers the allocator must not touch

	// Pass scratch. Every pass overwrites what it uses; nothing the program
	// keeps points into it.
	entries                  []profileEntry
	counts, remaining, order []int
	remainders, credit       []float64
	intRegs, fpRegs          []isa.Reg
	perStream                []int
	rotated                  []program.Instruction
	notes                    []program.Note
}

// reset starts a new program with the given name on the builder, keeping its
// scratch. The rng drives every stochastic decision made by passes
// (instruction placement shuffling); a fixed seed makes generation fully
// deterministic.
func (b *Builder) reset(name string, rng *rand.Rand) {
	b.prog = program.New(name)
	b.rng = rng
	b.reserved = [isa.TotalRegs]bool{}
}

// Program returns the program under construction.
func (b *Builder) Program() *program.Program { return b.prog }

// ReserveRegister marks a register as unavailable to the register allocator.
func (b *Builder) ReserveRegister(r isa.Reg) { b.reserved[r.ID()] = true }

// IsReserved reports whether the register is reserved.
func (b *Builder) IsReserved(r isa.Reg) bool { return b.reserved[r.ID()] }

// Pass is one code-synthesis transformation applied to the Builder.
// Passes are applied in order by Apply; each sees the effects of the
// previous ones, mirroring Microprobe's pass pipeline.
type Pass interface {
	// Name returns a short identifier used in errors and reports.
	Name() string
	// Apply transforms the builder in place.
	Apply(b *Builder) error
}

// Apply runs the passes in order, stopping at the first error.
func (b *Builder) Apply(passes ...Pass) error {
	for _, p := range passes {
		if err := p.Apply(b); err != nil {
			return fmt.Errorf("microprobe: pass %s: %w", p.Name(), err)
		}
	}
	return nil
}

// availableIntRegs returns the unreserved integer registers in ascending
// index order, in the builder's scratch.
func (b *Builder) availableIntRegs() []isa.Reg {
	out := b.intRegs[:0]
	for i := 0; i < isa.NumIntRegs; i++ {
		r := isa.IntReg(i)
		if !b.IsReserved(r) && !r.IsZero() {
			out = append(out, r)
		}
	}
	b.intRegs = out
	return out
}

// availableFPRegs returns the unreserved floating-point registers, in the
// builder's scratch.
func (b *Builder) availableFPRegs() []isa.Reg {
	out := b.fpRegs[:0]
	for i := 0; i < isa.NumFPRegs; i++ {
		r := isa.FPReg(i)
		if !b.IsReserved(r) {
			out = append(out, r)
		}
	}
	b.fpRegs = out
	return out
}
