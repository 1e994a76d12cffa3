package program

import (
	"fmt"
	"io"
	"sort"
)

// EmitAssembly writes the program as a GNU-assembler RISC-V source file
// (.S). The file contains a .data section reserving one buffer per memory
// stream, a .text section with the loop body under the label "kernel_loop",
// and a small entry stub that initializes the loop counter and stream base
// registers before falling into the endless loop. This is the "clone binary /
// stress binary" artifact of the paper: a user with a RISC-V toolchain can
// assemble it and run it on native hardware or a full-system simulator.
func (p *Program) EmitAssembly(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("program: cannot emit invalid program: %w", err)
	}
	ew := &errWriter{w: w}

	ew.printf("# Synthetic test case %q generated by MicroGrad-Go\n", p.Name)
	ew.printf("# static instructions: %d, data footprint: %d bytes\n", p.StaticCount(), p.FootprintBytes())
	for _, k := range sortedMetaKeys(p.Meta) {
		ew.printf("# meta %s = %s\n", k, p.Meta[k])
	}
	ew.printf("\n\t.section .data\n\t.align 6\n")
	for _, s := range p.Streams {
		ew.printf("stream%d:\n\t.zero %d\n", s.ID, s.FootprintBytes)
	}

	ew.printf("\n\t.section .text\n\t.globl _start\n_start:\n")
	// Initialize stream base registers (up to two streams use the dedicated
	// base registers; further streams are addressed relative to the second).
	baseRegs := []string{"x6", "x7"}
	for i, s := range p.Streams {
		if i < len(baseRegs) {
			ew.printf("\tla %s, stream%d\n", baseRegs[i], s.ID)
		}
	}
	ew.printf("\tli x5, 0\t\t# loop counter\n")

	ew.printf("\nkernel_loop:\n")
	for i, in := range p.Instructions {
		note := p.Note(i)
		if note.Label != "" && note.Label != "kernel_loop" {
			ew.printf("%s:\n", note.Label)
		}
		ew.printf("\t%s", p.formatInstr(i, in))
		if note.Comment != "" {
			ew.printf("\t# %s", note.Comment)
		}
		ew.printf("\n")
	}
	ew.printf("\n")
	return ew.err
}

// formatInstr renders one instruction in assembler syntax.
func (p *Program) formatInstr(idx int, in Instruction) string {
	mn := in.Op.String()
	switch {
	case in.IsMemory():
		base := "x6"
		if in.Stream >= 0 && in.Stream%2 == 1 {
			base = "x7"
		}
		if in.Op.Class().String() == "store" {
			// store: op rs2, imm(rs1)
			src := in.Srcs[0].String()
			return fmt.Sprintf("%s %s, %d(%s)", mn, src, in.Imm, base)
		}
		return fmt.Sprintf("%s %s, %d(%s)", mn, in.Dest.String(), in.Imm, base)
	case in.Op.IsCondBranch():
		target := "kernel_loop"
		if idx != len(p.Instructions)-1 {
			// Internal branches target the next instruction so the loop body
			// always executes fully regardless of direction.
			target = fmt.Sprintf(".+%d", InstrBytes)
		}
		a, b := "x0", "x0"
		if in.NumSrcs > 0 {
			a = in.Srcs[0].String()
		}
		if in.NumSrcs > 1 {
			b = in.Srcs[1].String()
		}
		return fmt.Sprintf("%s %s, %s, %s", mn, a, b, target)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s x0, kernel_loop", mn)
	case in.Op.String() == "nop":
		return "nop"
	default:
		srcs := ""
		for s := 0; s < int(in.NumSrcs); s++ {
			srcs += ", " + in.Srcs[s].String()
		}
		return fmt.Sprintf("%s %s%s", mn, in.Dest.String(), srcs)
	}
}

// errWriter accumulates the first write error so the emitters can avoid
// per-line error handling.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func sortedMetaKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
