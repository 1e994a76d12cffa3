package microprobe

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/program"
)

// phaseSettings returns duty-cycled settings with the given rotation.
func phaseSettings(offset int) knobs.Settings {
	set := aluSettings()
	set.Profile = knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 5, isa.FMULD: 5})
	set.DutyCycle = 0.5
	set.BurstLen = 64
	set.PhaseOffset = offset
	return set
}

func TestPhaseRotatePreservesInstructionMultiset(t *testing.T) {
	syn := NewSynthesizer(Options{LoopSize: 200, Seed: 1})
	base, err := syn.SynthesizeSettings("phase-base", phaseSettings(0))
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := syn.SynthesizeSettings("phase-rot", phaseSettings(96))
	if err != nil {
		t.Fatal(err)
	}
	if base.StaticCount() != rotated.StaticCount() {
		t.Fatalf("rotation changed static size: %d vs %d", base.StaticCount(), rotated.StaticCount())
	}
	var baseCount, rotCount [isa.NumClasses]int
	for i := range base.Instructions {
		baseCount[isa.Describe(base.Instructions[i].Op).Class]++
		rotCount[isa.Describe(rotated.Instructions[i].Op).Class]++
	}
	if baseCount != rotCount {
		t.Errorf("rotation changed the class multiset: %v vs %v", baseCount, rotCount)
	}
	// The rotated body is the base body shifted: instruction 0 of the rotated
	// kernel is instruction offset of the base kernel.
	body := base.StaticCount() - 1
	off := 96 % body
	if base.Instructions[off].Op != rotated.Instructions[0].Op {
		t.Errorf("rotated slot 0 holds %v, want base slot %d's %v",
			rotated.Instructions[0].Op, off, base.Instructions[off].Op)
	}
	if got := rotated.Note(0).Label; got != "kernel_loop" {
		t.Errorf("loop label must stay on slot 0, got %q", got)
	}
	if rotated.Instructions[body].Op != isa.BGE {
		t.Error("loop-closing branch must stay in place")
	}
}

func TestPhaseRotateShiftsBurstSchedule(t *testing.T) {
	syn := NewSynthesizer(Options{LoopSize: 200, Seed: 1})
	base, err := syn.SynthesizeSettings("phase-base", phaseSettings(0))
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := syn.SynthesizeSettings("phase-rot", phaseSettings(32))
	if err != nil {
		t.Fatal(err)
	}
	// The duty-cycle pass turns burst tails into DIV throttles; rotation must
	// move where those throttle runs sit in the static body.
	throttleAt := func(p0 bool) []bool {
		prog := base
		if !p0 {
			prog = rotated
		}
		out := make([]bool, prog.StaticCount()-1)
		for i := range out {
			out[i] = prog.Instructions[i].Op == isa.DIV
		}
		return out
	}
	b, r := throttleAt(true), throttleAt(false)
	same := true
	for i := range b {
		if b[i] != r[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("rotation by a non-period offset should move the throttle schedule")
	}
	// But the number of throttle slots is unchanged.
	count := func(v []bool) int {
		n := 0
		for _, x := range v {
			if x {
				n++
			}
		}
		return n
	}
	if count(b) != count(r) {
		t.Errorf("rotation changed throttle count: %d vs %d", count(b), count(r))
	}
}

func TestPhaseRotatePassValidation(t *testing.T) {
	rejects(t, "negative offset", "phase offset", func(s *knobs.Settings) { s.PhaseOffset = -1 })
	// Whole-body rotations are identities.
	b := newBlock(t, 8)
	profile := knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 1, isa.FMULD: 2})
	b.setInstructionTypes(&profile)
	before := slices.Clone(b.prog.Instructions)
	b.rotate(7)
	if !slices.Equal(b.prog.Instructions, before) {
		t.Error("full-body rotation should be the identity")
	}
}

// TestPhaseRotateMovesNotes checks that rotation keeps the loop label on
// slot 0, moves a body instruction's comment with the instruction, and
// leaves the loop-closing branch's note in place.
func TestPhaseRotateMovesNotes(t *testing.T) {
	b := newBlock(t, 10)
	p := b.prog
	p.Instructions[4].Op = isa.ADD
	p.SetComment(4, "marked")
	p.SetLabel(6, "stale")
	b.rotate(3)
	want := []program.Note{
		{Index: 0, Label: "kernel_loop"},
		{Index: 1, Comment: "marked"},
		{Index: 9, Comment: "loop close"},
	}
	if !slices.Equal(p.Notes, want) {
		t.Fatalf("rotated notes = %+v, want %+v", p.Notes, want)
	}
	if p.Instructions[1].Op != isa.ADD {
		t.Errorf("commented instruction moved to slot 1 without its opcode: %v", p.Instructions[1].Op)
	}
}

// sameKernel fails the test unless got and want are the same kernel under
// reflect.DeepEqual and emit the same assembly and C.
func sameKernel(t *testing.T, what string, got, want *program.Program) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: kernel differs from direct synthesis", what)
	}
	for _, emit := range []func(*program.Program, io.Writer) error{
		(*program.Program).EmitAssembly, (*program.Program).EmitC,
	} {
		var g, w bytes.Buffer
		if err := emit(got, &g); err != nil {
			t.Fatal(err)
		}
		if err := emit(want, &w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%s: emitted kernel differs from direct synthesis", what)
		}
	}
}

// TestSynthesizeCoreMatchesSynthesizeSettings checks that a core kernel
// deriveCore derives from its shape's base is the kernel every pass
// builds, for offsets of 0, inside the body, at and above its
// length, with the base built by the call itself or handed in from an
// earlier core.
func TestSynthesizeCoreMatchesSynthesizeSettings(t *testing.T) {
	// Memory instructions, whose address offsets depend on their order in
	// the body, and branches besides the duty-cycled ALU work.
	settings := func(offset int) knobs.Settings {
		set := phaseSettings(offset)
		set.Profile = knobs.NewProfile(map[isa.Opcode]float64{isa.ADD: 4, isa.FMULD: 2, isa.LD: 2, isa.SD: 1, isa.BNE: 1})
		return set
	}
	for _, loopSize := range []int{100, 257} {
		syn := NewSynthesizer(Options{LoopSize: loopSize, Seed: 3})
		body := loopSize - 1
		var base *program.Program
		for _, off := range []int{0, 1, 96, body - 1, body, body + 1, 2*body + 7, 1000} {
			want, err := syn.SynthesizeSettings("core", settings(off))
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := syn.deriveCore("core", settings(off), nil)
			if err != nil {
				t.Fatal(err)
			}
			sameKernel(t, fmt.Sprintf("loop %d offset %d, own base", loopSize, off), fresh, want)
			var got *program.Program
			if got, base, err = syn.deriveCore("core", settings(off), base); err != nil {
				t.Fatal(err)
			}
			sameKernel(t, fmt.Sprintf("loop %d offset %d, shared base", loopSize, off), got, want)
		}
	}
	if _, _, err := NewSynthesizer(Options{}).deriveCore("bad", settings(-1), nil); err == nil {
		t.Error("negative phase offset should be rejected")
	}
}
