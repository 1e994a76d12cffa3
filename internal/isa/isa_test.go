package isa

import "testing"

func TestDescribeAllOpcodes(t *testing.T) {
	for op := range Opcode(NumOpcodes) {
		d := Describe(op)
		if d.Mnemonic == "" {
			t.Errorf("opcode %d has empty mnemonic", op)
		}
		if !d.Class.Valid() {
			t.Errorf("opcode %v has invalid class %v", op, d.Class)
		}
		if d.Latency <= 0 {
			t.Errorf("opcode %v has non-positive latency %d", op, d.Latency)
		}
	}
}

func TestOpcodeClassConsistency(t *testing.T) {
	tests := []struct {
		op   Opcode
		want Class
	}{
		{ADD, ClassInteger},
		{MUL, ClassInteger},
		{FADDD, ClassFloat},
		{FMULD, ClassFloat},
		{BEQ, ClassBranch},
		{BNE, ClassBranch},
		{BGE, ClassBranch},
		{LD, ClassLoad},
		{LW, ClassLoad},
		{SD, ClassStore},
		{SW, ClassStore},
		{NOP, ClassNop},
	}
	for _, tc := range tests {
		if got := tc.op.Class(); got != tc.want {
			t.Errorf("%v.Class() = %v, want %v", tc.op, got, tc.want)
		}
	}
}

func TestMemoryOpcodes(t *testing.T) {
	for op := range Opcode(NumOpcodes) {
		isMem := op.Class() == ClassLoad || op.Class() == ClassStore
		if op.IsMemory() != isMem {
			t.Errorf("%v.IsMemory() = %v, want %v", op, op.IsMemory(), isMem)
		}
	}
}

func TestBranchOpcodes(t *testing.T) {
	condBranches := []Opcode{BEQ, BNE, BGE, BLT}
	for _, op := range condBranches {
		if !op.IsBranch() || !op.IsCondBranch() {
			t.Errorf("%v should be a conditional branch", op)
		}
	}
	if !JAL.IsBranch() {
		t.Error("JAL should be a branch")
	}
	if JAL.IsCondBranch() {
		t.Error("JAL should not be a conditional branch")
	}
	if ADD.IsBranch() {
		t.Error("ADD should not be a branch")
	}
}

// TestByMnemonicRoundTrip checks that an opcode's printed name names it
// alone: every mnemonic maps back to exactly one opcode, and an invalid
// opcode never prints as a defined mnemonic.
func TestByMnemonicRoundTrip(t *testing.T) {
	byMnemonic := make(map[string]Opcode, NumOpcodes)
	for op := range Opcode(NumOpcodes) {
		m := Describe(op).Mnemonic
		if prev, dup := byMnemonic[m]; dup {
			t.Errorf("opcodes %d and %d share the mnemonic %q", prev, op, m)
		}
		byMnemonic[m] = op
	}
	for op := range Opcode(NumOpcodes) {
		if got, ok := byMnemonic[op.String()]; !ok || got != op {
			t.Errorf("%v.String() = %q maps back to %v (found %v)", op, op.String(), got, ok)
		}
	}
	if got, ok := byMnemonic[Opcode(NumOpcodes).String()]; ok {
		t.Errorf("invalid opcode prints as the mnemonic of %v", got)
	}
}

func TestKnobOpcodes(t *testing.T) {
	ko := KnobOpcodes()
	if len(ko) != 10 {
		t.Fatalf("KnobOpcodes() has %d entries, want 10", len(ko))
	}
	want := []Opcode{ADD, MUL, FADDD, FMULD, BEQ, BNE, LD, LW, SD, SW}
	for i, op := range ko {
		if op != want[i] {
			t.Errorf("KnobOpcodes()[%d] = %v, want %v", i, op, want[i])
		}
	}
}

func TestInvalidOpcode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Describe of invalid opcode should panic")
		}
	}()
	Describe(Opcode(255))
}

func TestClassString(t *testing.T) {
	for c := range Class(NumClasses) {
		if c.String() == "" {
			t.Errorf("class %d has empty string", c)
		}
	}
	if ClassNop.String() != "nop" {
		t.Errorf("ClassNop.String() = %q", ClassNop.String())
	}
	if Class(200).Valid() {
		t.Error("Class(200) should not be valid")
	}
}

func TestUnitKindString(t *testing.T) {
	names := map[UnitKind]string{
		UnitALU: "alu", UnitMul: "mul", UnitFP: "fp", UnitLSU: "lsu", UnitNone: "none",
	}
	for u, want := range names {
		if u.String() != want {
			t.Errorf("UnitKind(%d).String() = %q, want %q", u, u.String(), want)
		}
	}
}

func TestRegisterBasics(t *testing.T) {
	if !RegZero.IsZero() {
		t.Error("RegZero.IsZero() = false")
	}
	if FPReg(0).IsZero() {
		t.Error("f0 should not be the zero register")
	}
	if got := IntReg(7).String(); got != "x7" {
		t.Errorf("IntReg(7).String() = %q", got)
	}
	if got := FPReg(12).String(); got != "f12" {
		t.Errorf("FPReg(12).String() = %q", got)
	}
}

// TestRegisterIDRoundTrip checks that Reg.ID is a bijection from the
// architectural registers onto [0, TotalRegs): cpusim indexes its register
// scoreboard by that ID.
func TestRegisterIDRoundTrip(t *testing.T) {
	regs := make([]Reg, 0, TotalRegs)
	for i := 0; i < NumIntRegs; i++ {
		regs = append(regs, IntReg(i))
	}
	for i := 0; i < NumFPRegs; i++ {
		regs = append(regs, FPReg(i))
	}
	ids := make(map[int]Reg, len(regs))
	for _, r := range regs {
		id := r.ID()
		if id < 0 || id >= TotalRegs {
			t.Errorf("%v has ID %d outside [0, %d)", r, id, TotalRegs)
		}
		if prev, dup := ids[id]; dup {
			t.Errorf("%v and %v share ID %d", prev, r, id)
		}
		ids[id] = r
	}
	if len(ids) != TotalRegs {
		t.Errorf("%d distinct IDs, want %d", len(ids), TotalRegs)
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := []func(){
		func() { IntReg(-1) },
		func() { IntReg(32) },
		func() { FPReg(64) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDefaultReserved(t *testing.T) {
	res := DefaultReserved()
	if len(res) == 0 {
		t.Fatal("DefaultReserved is empty")
	}
	seen := map[int]bool{}
	for _, r := range res {
		if !r.Valid() {
			t.Errorf("reserved register %v invalid", r)
		}
		if seen[r.ID()] {
			t.Errorf("duplicate reserved register %v", r)
		}
		seen[r.ID()] = true
	}
	if !seen[RegZero.ID()] {
		t.Error("zero register must be reserved")
	}
}
