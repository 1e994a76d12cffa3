package program

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"micrograd/internal/isa"
)

// testProgram builds a small, valid synthetic program by hand.
func testProgram(t *testing.T) *Program {
	t.Helper()
	p := New("unit-test")
	p.Streams = []MemoryStream{
		{ID: 0, Base: p.DataBase, FootprintBytes: 4096, StrideBytes: 16, Temp1: 4, Temp2: 2, Ratio: 0.6},
		{ID: 1, Base: p.DataBase + 4096, FootprintBytes: 8192, StrideBytes: 64, Temp1: 1, Temp2: 1, Ratio: 0.4},
	}
	p.Patterns = []BranchPattern{{ID: 0, RandomRatio: 0.3, TakenBias: 0.5, Period: 8}}
	r := func(i int) isa.Reg { return isa.IntReg(10 + i) }
	f := func(i int) isa.Reg { return isa.FPReg(i) }
	p.Instructions = []Instruction{
		{Op: isa.ADD, Dest: r(0), Srcs: [2]isa.Reg{r(1), r(2)}, NumSrcs: 2, Stream: NoStream, Pattern: NoPattern},
		{Op: isa.LD, Dest: r(1), Srcs: [2]isa.Reg{isa.RegBase}, NumSrcs: 1, Stream: 0, Pattern: NoPattern},
		{Op: isa.FMULD, Dest: f(1), Srcs: [2]isa.Reg{f(2), f(3)}, NumSrcs: 2, Stream: NoStream, Pattern: NoPattern},
		{Op: isa.BEQ, Srcs: [2]isa.Reg{r(0), r(1)}, NumSrcs: 2, Stream: NoStream, Pattern: 0},
		{Op: isa.SW, Srcs: [2]isa.Reg{r(0), isa.RegBas2}, NumSrcs: 2, Stream: 1, Pattern: NoPattern},
		{Op: isa.BGE, Srcs: [2]isa.Reg{isa.RegLoop, isa.RegZero}, NumSrcs: 2, Stream: NoStream, Pattern: NoPattern},
	}
	p.SetLabel(0, "kernel_loop")
	p.SetComment(5, "loop close")
	if err := p.Validate(); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	return p
}

func TestProgramBasics(t *testing.T) {
	p := testProgram(t)
	if p.StaticCount() != 6 {
		t.Errorf("StaticCount = %d, want 6", p.StaticCount())
	}
	if p.FootprintBytes() != 4096+8192 {
		t.Errorf("FootprintBytes = %d", p.FootprintBytes())
	}
	if p.PC(2) != p.CodeBase+8 {
		t.Errorf("PC(2) = %#x", p.PC(2))
	}
	if !strings.Contains(p.String(), "unit-test") {
		t.Errorf("String() = %q", p.String())
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"empty", func(p *Program) { p.Instructions = nil }},
		{"bad stream id", func(p *Program) { p.Streams[1].ID = 7 }},
		{"bad stream footprint", func(p *Program) { p.Streams[0].FootprintBytes = 0 }},
		{"bad stream stride", func(p *Program) { p.Streams[0].StrideBytes = -1 }},
		{"bad stream ratio", func(p *Program) { p.Streams[0].Ratio = 1.5 }},
		{"bad pattern id", func(p *Program) { p.Patterns[0].ID = 3 }},
		{"bad pattern ratio", func(p *Program) { p.Patterns[0].RandomRatio = -0.1 }},
		{"bad pattern period", func(p *Program) { p.Patterns[0].Period = 0 }},
		{"mem without stream", func(p *Program) { p.Instructions[1].Stream = NoStream }},
		{"mem stream out of range", func(p *Program) { p.Instructions[1].Stream = 9 }},
		{"stream on non-mem", func(p *Program) { p.Instructions[0].Stream = 0 }},
		{"branch without pattern", func(p *Program) { p.Instructions[3].Pattern = NoPattern }},
		{"last not branch", func(p *Program) { p.Instructions[len(p.Instructions)-1] = p.Instructions[0] }},
		{"bad numsrcs", func(p *Program) { p.Instructions[0].NumSrcs = 5 }},
		{"dest index out of range", func(p *Program) { p.Instructions[0].Dest = isa.Reg{Index: isa.NumIntRegs} }},
		{"src index out of range", func(p *Program) { p.Instructions[2].Srcs[1] = isa.Reg{FP: true, Index: isa.NumFPRegs} }},
		{"note out of range", func(p *Program) { p.Notes = append(p.Notes, Note{Index: 6, Comment: "past the end"}) }},
		{"notes out of order", func(p *Program) { p.Notes[0], p.Notes[1] = p.Notes[1], p.Notes[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testProgram(t)
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted malformed program (%s)", tc.name)
			}
		})
	}
}

// TestInstructionEncodingSize pins the compact kernel encoding: synthesis
// memos hold every kernel they build, so a wider field is a memory
// regression on every cached instruction.
func TestInstructionEncodingSize(t *testing.T) {
	if got := unsafe.Sizeof(isa.Reg{}); got != 2 {
		t.Errorf("isa.Reg is %d bytes, want 2", got)
	}
	if got := unsafe.Sizeof(Instruction{}); got != 24 {
		t.Errorf("Instruction is %d bytes, want 24", got)
	}
}

func TestNotes(t *testing.T) {
	p := testProgram(t)
	if n := p.Note(0); n.Label != "kernel_loop" || n.Comment != "" {
		t.Errorf("Note(0) = %+v", n)
	}
	if n := p.Note(3); n != (Note{Index: 3}) {
		t.Errorf("unannotated Note(3) = %+v", n)
	}
	p.SetComment(3, "hot branch")
	p.SetLabel(3, "inner")
	p.SetComment(0, "head")
	want := []Note{
		{Index: 0, Label: "kernel_loop", Comment: "head"},
		{Index: 3, Label: "inner", Comment: "hot branch"},
		{Index: 5, Comment: "loop close"},
	}
	if !slices.Equal(p.Notes, want) {
		t.Fatalf("Notes = %+v, want %+v", p.Notes, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.EmitAssembly(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "inner:\n\tbeq x10, x11, .+4\t# hot branch\n") {
		t.Errorf("assembly lacks the labelled, commented branch:\n%s", buf.String())
	}
	// Clearing both strings removes the note.
	p.SetLabel(3, "")
	p.SetComment(3, "")
	if len(p.Notes) != 2 || p.Note(3) != (Note{Index: 3}) {
		t.Errorf("cleared note kept: %+v", p.Notes)
	}
}

func TestEmitAssembly(t *testing.T) {
	p := testProgram(t)
	p.Meta["use_case"] = "test"
	var buf bytes.Buffer
	if err := p.EmitAssembly(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"kernel_loop:", "stream0:", "stream1:", ".zero 4096", "fmul.d", "beq", "bge", "_start:", "meta use_case = test"} {
		if !strings.Contains(out, want) {
			t.Errorf("assembly output missing %q", want)
		}
	}
	// Invalid programs must be refused.
	bad := New("bad")
	if err := bad.EmitAssembly(&buf); err == nil {
		t.Error("EmitAssembly accepted an invalid program")
	}
}

func TestEmitC(t *testing.T) {
	p := testProgram(t)
	var buf bytes.Buffer
	if err := p.EmitC(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"#include <stdint.h>", "int main(", "stream0[", "stream1[", "facc", "lcg(&rng)", "for (long it = 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("C output missing %q", want)
		}
	}
	bad := New("bad")
	if err := bad.EmitC(&buf); err == nil {
		t.Error("EmitC accepted an invalid program")
	}
}

func TestEmitterErrorPropagation(t *testing.T) {
	p := testProgram(t)
	if err := p.EmitAssembly(failingWriter{}); err == nil {
		t.Error("EmitAssembly should propagate write errors")
	}
	if err := p.EmitC(failingWriter{}); err == nil {
		t.Error("EmitC should propagate write errors")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }
