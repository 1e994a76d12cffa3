// Package isa defines the abstract RISC-V-flavoured instruction set used by
// the MicroGrad code generator and the trace-driven timing model.
//
// The ISA is intentionally small: it contains exactly the opcodes that the
// abstract workload model (the paper's Listing 1 knobs) needs to control —
// integer ALU, integer multiply, double-precision FP add/multiply,
// conditional branches, loads and stores of two widths — plus a handful of
// auxiliary opcodes used by the code-generation passes (address update, loop
// close). Each opcode carries a class, an execution latency and the
// functional-unit kind it occupies, which is all the timing model needs.
package isa

import "fmt"

// Class groups opcodes by the execution resource and metric bucket they
// belong to. The cloning metrics of the paper (Integer, Load, Store, Branch
// fractions) are computed per class.
type Class uint8

// Instruction classes.
const (
	ClassInteger Class = iota // integer ALU and multiply
	ClassFloat                // double precision floating point
	ClassBranch               // conditional branches
	ClassLoad                 // memory loads
	ClassStore                // memory stores
	ClassNop                  // no-operation / padding
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

// String returns the human-readable class name.
func (c Class) String() string {
	switch c {
	case ClassInteger:
		return "integer"
	case ClassFloat:
		return "float"
	case ClassBranch:
		return "branch"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassNop:
		return "nop"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Valid reports whether c is one of the defined classes.
func (c Class) Valid() bool { return c < numClasses }

// UnitKind identifies the functional unit an instruction executes on.
type UnitKind uint8

// Functional unit kinds. The core configuration (platform.CoreConfig)
// specifies how many of each exist.
const (
	UnitALU  UnitKind = iota // integer ALU (also used by branches for condition resolution)
	UnitMul                  // integer multiplier (pipelined, part of SIMD/complex pool)
	UnitFP                   // floating point unit
	UnitLSU                  // load/store unit (address generation + memory port)
	UnitNone                 // consumes no execution unit (nop)
	numUnitKinds
)

// NumUnitKinds is the number of distinct functional unit kinds.
const NumUnitKinds = int(numUnitKinds)

// String returns the unit name.
func (u UnitKind) String() string {
	switch u {
	case UnitALU:
		return "alu"
	case UnitMul:
		return "mul"
	case UnitFP:
		return "fp"
	case UnitLSU:
		return "lsu"
	case UnitNone:
		return "none"
	default:
		return fmt.Sprintf("unit(%d)", uint8(u))
	}
}

// Opcode identifies one instruction of the abstract ISA.
type Opcode uint8

// Opcodes. The first ten correspond one-to-one with the instruction-fraction
// knobs of the paper's Listing 1.
const (
	ADD   Opcode = iota // integer add
	MUL                 // integer multiply
	FADDD               // double-precision FP add
	FMULD               // double-precision FP multiply
	BEQ                 // branch if equal
	BNE                 // branch if not equal
	LD                  // load double word (8 bytes)
	LW                  // load word (4 bytes)
	SD                  // store double word (8 bytes)
	SW                  // store word (4 bytes)

	// Auxiliary opcodes used by generation passes and reference workloads.
	SUB   // integer subtract
	AND   // integer and
	OR    // integer or
	XOR   // integer xor
	SLL   // shift left logical
	SRL   // shift right logical
	DIV   // integer divide
	FDIVD // FP divide
	FSUBD // FP subtract
	BGE   // branch if greater-or-equal (loop-closing branch)
	BLT   // branch if less-than
	JAL   // unconditional jump (loop back edge)
	NOP   // no operation
	numOpcodes
)

// NumOpcodes is the number of opcodes in the abstract ISA.
const NumOpcodes = int(numOpcodes)

// Descriptor holds the static properties of an opcode.
type Descriptor struct {
	Op         Opcode
	Mnemonic   string
	Class      Class
	Unit       UnitKind
	Latency    int  // execution latency in cycles (hit latency for memory ops)
	MemBytes   int  // access width in bytes for loads/stores, 0 otherwise
	IsBranch   bool // any control transfer
	IsCondBr   bool // conditional branch (prediction applies)
	EnergyWt   float64
	NumSources int // number of register source operands
	HasDest    bool
}

// descriptors is indexed by Opcode.
var descriptors = [numOpcodes]Descriptor{
	ADD:   {Op: ADD, Mnemonic: "add", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true, EnergyWt: 1.0},
	SUB:   {Op: SUB, Mnemonic: "sub", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true, EnergyWt: 1.0},
	AND:   {Op: AND, Mnemonic: "and", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true, EnergyWt: 0.9},
	OR:    {Op: OR, Mnemonic: "or", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true, EnergyWt: 0.9},
	XOR:   {Op: XOR, Mnemonic: "xor", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true, EnergyWt: 0.9},
	SLL:   {Op: SLL, Mnemonic: "sll", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true, EnergyWt: 1.0},
	SRL:   {Op: SRL, Mnemonic: "srl", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true, EnergyWt: 1.0},
	MUL:   {Op: MUL, Mnemonic: "mul", Class: ClassInteger, Unit: UnitMul, Latency: 3, NumSources: 2, HasDest: true, EnergyWt: 2.2},
	DIV:   {Op: DIV, Mnemonic: "div", Class: ClassInteger, Unit: UnitMul, Latency: 12, NumSources: 2, HasDest: true, EnergyWt: 4.0},
	FADDD: {Op: FADDD, Mnemonic: "fadd.d", Class: ClassFloat, Unit: UnitFP, Latency: 3, NumSources: 2, HasDest: true, EnergyWt: 2.6},
	FSUBD: {Op: FSUBD, Mnemonic: "fsub.d", Class: ClassFloat, Unit: UnitFP, Latency: 3, NumSources: 2, HasDest: true, EnergyWt: 2.6},
	FMULD: {Op: FMULD, Mnemonic: "fmul.d", Class: ClassFloat, Unit: UnitFP, Latency: 4, NumSources: 2, HasDest: true, EnergyWt: 3.2},
	FDIVD: {Op: FDIVD, Mnemonic: "fdiv.d", Class: ClassFloat, Unit: UnitFP, Latency: 14, NumSources: 2, HasDest: true, EnergyWt: 5.0},
	BEQ:   {Op: BEQ, Mnemonic: "beq", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, IsCondBr: true, NumSources: 2, EnergyWt: 1.1},
	BNE:   {Op: BNE, Mnemonic: "bne", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, IsCondBr: true, NumSources: 2, EnergyWt: 1.1},
	BGE:   {Op: BGE, Mnemonic: "bge", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, IsCondBr: true, NumSources: 2, EnergyWt: 1.1},
	BLT:   {Op: BLT, Mnemonic: "blt", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, IsCondBr: true, NumSources: 2, EnergyWt: 1.1},
	JAL:   {Op: JAL, Mnemonic: "jal", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, NumSources: 0, HasDest: true, EnergyWt: 1.0},
	LD:    {Op: LD, Mnemonic: "ld", Class: ClassLoad, Unit: UnitLSU, Latency: 2, MemBytes: 8, NumSources: 1, HasDest: true, EnergyWt: 2.8},
	LW:    {Op: LW, Mnemonic: "lw", Class: ClassLoad, Unit: UnitLSU, Latency: 2, MemBytes: 4, NumSources: 1, HasDest: true, EnergyWt: 2.6},
	SD:    {Op: SD, Mnemonic: "sd", Class: ClassStore, Unit: UnitLSU, Latency: 1, MemBytes: 8, NumSources: 2, EnergyWt: 2.9},
	SW:    {Op: SW, Mnemonic: "sw", Class: ClassStore, Unit: UnitLSU, Latency: 1, MemBytes: 4, NumSources: 2, EnergyWt: 2.7},
	NOP:   {Op: NOP, Mnemonic: "nop", Class: ClassNop, Unit: UnitNone, Latency: 1, EnergyWt: 0.2},
}

// Describe returns the static descriptor of op. It panics if op is not a
// valid opcode, because that is always a programming error in the caller.
func Describe(op Opcode) Descriptor {
	if int(op) >= NumOpcodes {
		panic(fmt.Sprintf("isa: invalid opcode %d", op))
	}
	return descriptors[op]
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return int(op) < NumOpcodes }

// String returns the opcode mnemonic.
func (op Opcode) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return descriptors[op].Mnemonic
}

// Class returns the class of op.
func (op Opcode) Class() Class { return Describe(op).Class }

// IsMemory reports whether op accesses data memory.
func (op Opcode) IsMemory() bool {
	c := Describe(op).Class
	return c == ClassLoad || c == ClassStore
}

// IsBranch reports whether op is any control-transfer instruction.
func (op Opcode) IsBranch() bool { return Describe(op).IsBranch }

// IsCondBranch reports whether op is a conditional branch.
func (op Opcode) IsCondBranch() bool { return Describe(op).IsCondBr }

// Latency returns the nominal execution latency of op in cycles.
func (op Opcode) Latency() int { return Describe(op).Latency }

// Unit returns the functional unit kind op executes on.
func (op Opcode) Unit() UnitKind { return Describe(op).Unit }

// MemBytes returns the number of bytes accessed by a memory opcode, or 0.
func (op Opcode) MemBytes() int { return Describe(op).MemBytes }

// KnobOpcodes returns the ten opcodes that correspond to the
// instruction-fraction knobs of the paper's Listing 1, in knob order.
func KnobOpcodes() []Opcode {
	return []Opcode{ADD, MUL, FADDD, FMULD, BEQ, BNE, LD, LW, SD, SW}
}

// Opcodes returns every defined opcode.
func Opcodes() []Opcode {
	out := make([]Opcode, NumOpcodes)
	for i := range out {
		out[i] = Opcode(i)
	}
	return out
}

// Classes returns the metric-relevant classes (everything except ClassNop).
func Classes() []Class {
	return []Class{ClassInteger, ClassFloat, ClassBranch, ClassLoad, ClassStore}
}
