package microprobe

import (
	"slices"
	"testing"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/program"
)

// phaseSettings returns duty-cycled settings with the given rotation.
func phaseSettings(offset int) knobs.Settings {
	set := aluSettings()
	set.InstrWeights = map[isa.Opcode]float64{isa.ADD: 5, isa.FMULD: 5}
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
	b := newBuilder("phase")
	if err := (PhaseRotatePass{OffsetInstrs: 4}).Apply(b); err == nil {
		t.Error("rotation before the building block should fail")
	}
	if err := b.Apply(SimpleBuildingBlockPass{LoopSize: 8}); err != nil {
		t.Fatal(err)
	}
	if err := (PhaseRotatePass{OffsetInstrs: -1}).Apply(b); err == nil {
		t.Error("negative offset should be rejected")
	}
	// Whole-body rotations are identities.
	var before []isa.Opcode
	for _, in := range b.Program().Instructions {
		before = append(before, in.Op)
	}
	if err := (PhaseRotatePass{OffsetInstrs: 7}).Apply(b); err != nil {
		t.Fatal(err)
	}
	for i, in := range b.Program().Instructions {
		if in.Op != before[i] {
			t.Errorf("full-body rotation should be the identity (slot %d)", i)
		}
	}
}

// TestPhaseRotateMovesNotes checks that rotation keeps the loop label on
// slot 0, moves a body instruction's comment with the instruction, and
// leaves the loop-closing branch's note in place.
func TestPhaseRotateMovesNotes(t *testing.T) {
	b := newBuilder("notes")
	if err := b.Apply(SimpleBuildingBlockPass{LoopSize: 10}); err != nil {
		t.Fatal(err)
	}
	p := b.Program()
	p.Instructions[4].Op = isa.ADD
	p.SetComment(4, "marked")
	p.SetLabel(6, "stale")
	if err := b.Apply(PhaseRotatePass{OffsetInstrs: 3}); err != nil {
		t.Fatal(err)
	}
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
