package isa

import "fmt"

// Reg identifies an architectural register of the abstract ISA. Integer and
// floating-point registers live in separate files, mirroring RISC-V x0..x31
// and f0..f31. A Reg takes two bytes, which keeps program.Instruction small.
type Reg struct {
	// FP marks the floating-point register file.
	FP bool
	// Index is the register number within its file (0..31).
	Index uint8
}

// NumIntRegs and NumFPRegs are the architectural register file sizes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// Well-known integer registers, following RISC-V conventions.
var (
	RegZero = Reg{Index: 0} // hard-wired zero
	RegRA   = Reg{Index: 1} // return address
	RegSP   = Reg{Index: 2} // stack pointer
	RegGP   = Reg{Index: 3} // global pointer
	RegTP   = Reg{Index: 4} // thread pointer
	RegLoop = Reg{Index: 5} // loop counter used by generated kernels (t0)
	RegBase = Reg{Index: 6} // memory stream base pointer (t1)
	RegBas2 = Reg{Index: 7} // second memory stream base pointer (t2)
)

// IntReg returns the integer register with the given index.
func IntReg(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg{Index: uint8(i)}
}

// FPReg returns the floating-point register with the given index.
func FPReg(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return Reg{FP: true, Index: uint8(i)}
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool {
	if r.FP {
		return r.Index < NumFPRegs
	}
	return r.Index < NumIntRegs
}

// IsZero reports whether r is the hard-wired integer zero register.
func (r Reg) IsZero() bool { return !r.FP && r.Index == 0 }

// String renders the register in RISC-V style (x5, f12).
func (r Reg) String() string {
	if r.FP {
		return fmt.Sprintf("f%d", r.Index)
	}
	return fmt.Sprintf("x%d", r.Index)
}

// ID returns a dense unique identifier for the register, suitable for use as
// an array index across both files: integer registers map to [0,32), FP
// registers to [32,64).
func (r Reg) ID() int {
	if r.FP {
		return NumIntRegs + int(r.Index)
	}
	return int(r.Index)
}

// TotalRegs is the total number of architectural registers across both files.
const TotalRegs = NumIntRegs + NumFPRegs

// DefaultReserved returns the registers the code generator must not allocate
// as scratch destinations: the zero register, ABI pointers and the registers
// the generated kernel uses for loop control and memory stream bases.
func DefaultReserved() []Reg {
	return []Reg{RegZero, RegRA, RegSP, RegGP, RegTP, RegLoop, RegBase, RegBas2}
}
