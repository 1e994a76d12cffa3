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
	Mnemonic   string
	Class      Class
	Unit       UnitKind
	Latency    int  // execution latency in cycles (hit latency for memory ops)
	IsBranch   bool // any control transfer
	IsCondBr   bool // conditional branch (prediction applies)
	NumSources int  // number of register source operands
	HasDest    bool
}

// descriptors is indexed by Opcode.
var descriptors = [numOpcodes]Descriptor{
	ADD:   {Mnemonic: "add", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true},
	SUB:   {Mnemonic: "sub", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true},
	AND:   {Mnemonic: "and", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true},
	OR:    {Mnemonic: "or", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true},
	XOR:   {Mnemonic: "xor", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true},
	SLL:   {Mnemonic: "sll", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true},
	SRL:   {Mnemonic: "srl", Class: ClassInteger, Unit: UnitALU, Latency: 1, NumSources: 2, HasDest: true},
	MUL:   {Mnemonic: "mul", Class: ClassInteger, Unit: UnitMul, Latency: 3, NumSources: 2, HasDest: true},
	DIV:   {Mnemonic: "div", Class: ClassInteger, Unit: UnitMul, Latency: 12, NumSources: 2, HasDest: true},
	FADDD: {Mnemonic: "fadd.d", Class: ClassFloat, Unit: UnitFP, Latency: 3, NumSources: 2, HasDest: true},
	FSUBD: {Mnemonic: "fsub.d", Class: ClassFloat, Unit: UnitFP, Latency: 3, NumSources: 2, HasDest: true},
	FMULD: {Mnemonic: "fmul.d", Class: ClassFloat, Unit: UnitFP, Latency: 4, NumSources: 2, HasDest: true},
	FDIVD: {Mnemonic: "fdiv.d", Class: ClassFloat, Unit: UnitFP, Latency: 14, NumSources: 2, HasDest: true},
	BEQ:   {Mnemonic: "beq", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, IsCondBr: true, NumSources: 2},
	BNE:   {Mnemonic: "bne", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, IsCondBr: true, NumSources: 2},
	BGE:   {Mnemonic: "bge", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, IsCondBr: true, NumSources: 2},
	BLT:   {Mnemonic: "blt", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, IsCondBr: true, NumSources: 2},
	JAL:   {Mnemonic: "jal", Class: ClassBranch, Unit: UnitALU, Latency: 1, IsBranch: true, NumSources: 0, HasDest: true},
	LD:    {Mnemonic: "ld", Class: ClassLoad, Unit: UnitLSU, Latency: 2, NumSources: 1, HasDest: true},
	LW:    {Mnemonic: "lw", Class: ClassLoad, Unit: UnitLSU, Latency: 2, NumSources: 1, HasDest: true},
	SD:    {Mnemonic: "sd", Class: ClassStore, Unit: UnitLSU, Latency: 1, NumSources: 2},
	SW:    {Mnemonic: "sw", Class: ClassStore, Unit: UnitLSU, Latency: 1, NumSources: 2},
	NOP:   {Mnemonic: "nop", Class: ClassNop, Unit: UnitNone, Latency: 1},
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

// KnobOpcodes returns the ten opcodes that correspond to the
// instruction-fraction knobs of the paper's Listing 1, in knob order.
func KnobOpcodes() []Opcode {
	return []Opcode{ADD, MUL, FADDD, FMULD, BEQ, BNE, LD, LW, SD, SW}
}
