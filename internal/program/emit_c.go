package program

import (
	"fmt"
	"io"

	"micrograd/internal/isa"
)

// EmitC writes the program as a self-contained C kernel. Because a pure-Go
// (or pure-C) rendering cannot dictate the exact machine instructions the
// compiler emits, the C kernel is the *portable* form of the test case: it
// reproduces the program's memory streams (footprint, stride, temporal
// re-use), its branch behaviour (randomization ratio via a linear
// congruential generator) and its class mix (integer / floating-point /
// load / store operation counts per iteration), so that the kernel exercises
// the same microarchitectural structures even if instruction selection
// differs. For exact per-instruction control, use EmitAssembly and a RISC-V
// toolchain; this is the documented substitution for environments where the
// Go runtime or a host compiler obscures microarchitectural control.
func (p *Program) EmitC(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("program: cannot emit invalid program: %w", err)
	}
	ew := &errWriter{w: w}

	ew.printf("/* Synthetic test case %q generated by MicroGrad-Go.\n", p.Name)
	ew.printf(" * Static instructions: %d; data footprint: %d bytes.\n", p.StaticCount(), p.FootprintBytes())
	for _, k := range sortedMetaKeys(p.Meta) {
		ew.printf(" * meta %s = %s\n", k, p.Meta[k])
	}
	ew.printf(" * Compile: cc -O1 -o kernel kernel.c   (avoid -O2+ so the loop body is preserved)\n */\n\n")
	ew.printf("#include <stdint.h>\n#include <stdlib.h>\n#include <stdio.h>\n\n")

	for _, s := range p.Streams {
		ew.printf("static volatile uint8_t stream%d[%d];\n", s.ID, s.FootprintBytes)
	}
	ew.printf("\nstatic inline uint32_t lcg(uint32_t *s) { *s = *s * 1664525u + 1013904223u; return *s; }\n\n")

	ew.printf("int main(int argc, char **argv) {\n")
	ew.printf("    long iters = argc > 1 ? atol(argv[1]) : 10000000L / %d;\n", max(1, p.StaticCount()))
	ew.printf("    uint32_t rng = 0x12345678u;\n")
	ew.printf("    volatile int64_t iacc = 1; volatile double facc = 1.0;\n")
	for i, s := range p.Streams {
		ew.printf("    size_t off%d = 0; (void)off%d;\n", i, i)
		_ = s
	}
	ew.printf("    int64_t branch_taken = 0;\n")
	ew.printf("    for (long it = 0; it < iters; it++) {\n")

	// Emit one C statement per static instruction, preserving program order
	// so the per-iteration operation mix matches the static mix exactly.
	for i, in := range p.Instructions {
		if i == len(p.Instructions)-1 && in.Op.IsBranch() {
			break // loop-closing branch is the for-loop itself
		}
		ew.printf("        %s\n", p.cStatement(in))
	}
	ew.printf("    }\n")
	ew.printf("    printf(\"iacc=%%lld facc=%%f taken=%%lld\\n\", (long long)iacc, (double)facc, (long long)branch_taken);\n")
	ew.printf("    return 0;\n}\n")
	return ew.err
}

// cStatement renders one instruction as a C statement.
func (p *Program) cStatement(in Instruction) string {
	switch in.Class() {
	case isa.ClassInteger:
		switch in.Op {
		case isa.MUL, isa.DIV:
			return "iacc = iacc * 167772161 + 7; /* " + in.Op.String() + " */"
		default:
			return "iacc = iacc + 0x9e3779b9; /* " + in.Op.String() + " */"
		}
	case isa.ClassFloat:
		if in.Op == isa.FMULD || in.Op == isa.FDIVD {
			return "facc = facc * 1.0000001; /* " + in.Op.String() + " */"
		}
		return "facc = facc + 1.0e-7; /* " + in.Op.String() + " */"
	case isa.ClassLoad:
		s := p.Streams[in.Stream]
		return fmt.Sprintf("iacc += stream%d[off%d]; off%d = (off%d + %d) %% %d; /* %s */",
			s.ID, s.ID, s.ID, s.ID, s.StrideBytes, s.FootprintBytes, in.Op)
	case isa.ClassStore:
		s := p.Streams[in.Stream]
		return fmt.Sprintf("stream%d[off%d] = (uint8_t)iacc; off%d = (off%d + %d) %% %d; /* %s */",
			s.ID, s.ID, s.ID, s.ID, s.StrideBytes, s.FootprintBytes, in.Op)
	case isa.ClassBranch:
		ratio := 0.0
		if in.Pattern >= 0 && int(in.Pattern) < len(p.Patterns) {
			ratio = p.Patterns[in.Pattern].RandomRatio
		}
		threshold := uint32(float64(^uint32(0)) * ratio * 0.5)
		return fmt.Sprintf("if (lcg(&rng) < %du) { branch_taken++; } /* %s random_ratio=%.2f */",
			threshold, in.Op, ratio)
	default:
		return "/* nop */;"
	}
}
