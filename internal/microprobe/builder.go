// Package microprobe is the code-generation back-end of MicroGrad-Go. It
// reimplements, in Go and over the abstract ISA of internal/isa, the subset
// of IBM's Microprobe framework that the MicroGrad paper relies on: the
// sequence of code-synthesis passes of the paper's Listing 2 that turns an
// abstract workload description — instruction profile, register dependency
// distance, memory streams, branch randomization — into a concrete synthetic
// test case (internal/program.Program).
//
// A Synthesizer runs that sequence for a knob configuration
// (internal/knobs.Settings), which is what the tuning mechanism uses. Each
// pass is one step of a builder, named after its Microprobe pass in its doc
// comment; SynthesizeSettings calls the steps in Listing 2's order.
package microprobe

import (
	"slices"

	"micrograd/internal/isa"
	"micrograd/internal/program"
)

// builder holds the program under construction and the steps' working
// memory, which a Synthesizer reuses from one synthesis to the next. Every
// step overwrites the scratch it uses; nothing the program keeps points
// into it.
type builder struct {
	prog *program.Program

	entries                  []profileEntry
	counts, remaining, order []int
	remainders, credit       []float64
	rotated                  []program.Instruction
	notes                    []program.Note
}

// The register pools of the allocation step, in ascending index order:
// every register but the zero register and the ones Microprobe's
// ReserveRegistersPass reserves (isa.DefaultReserved: the loop counter, the
// stream bases and the duty cycle's throttle register among them).
var intPool, fpPool = registerPools(isa.DefaultReserved())

// registerPools returns the integer and floating-point registers outside
// reserved, leaving out the zero register.
func registerPools(reserved []isa.Reg) (ints, fps []isa.Reg) {
	for i := 0; i < isa.NumIntRegs; i++ {
		if r := isa.IntReg(i); !r.IsZero() && !slices.Contains(reserved, r) {
			ints = append(ints, r)
		}
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		if r := isa.FPReg(i); !slices.Contains(reserved, r) {
			fps = append(fps, r)
		}
	}
	return ints, fps
}

// resized returns *buf resliced to length n, growing it when it is too
// short, and keeps the grown buffer in *buf. The contents are unspecified.
func resized[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}
