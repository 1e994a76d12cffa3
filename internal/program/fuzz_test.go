package program_test

import (
	"bytes"
	"testing"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
)

// fuzzSettings maps raw fuzz inputs onto a (possibly invalid) settings
// vector. Out-of-range values are intentionally passed through so the fuzz
// target exercises the validation boundary too; all four weights may be
// zero.
func fuzzSettings(regDist, memKB, stride, temp1, temp2 uint8, branch, duty float64, burst uint8, addW, fpW, memW, bneW uint8) knobs.Settings {
	return knobs.Settings{
		Profile: knobs.NewProfile(map[isa.Opcode]float64{
			isa.ADD:   float64(addW),
			isa.FMULD: float64(fpW),
			isa.LD:    float64(memW),
			isa.BNE:   float64(bneW),
		}),
		RegDist:           int(regDist),
		MemFootprintKB:    int(memKB),
		MemStrideB:        int(stride),
		MemTemp1:          int(temp1),
		MemTemp2:          int(temp2),
		BranchRandomRatio: branch,
		DutyCycle:         duty,
		BurstLen:          int(burst),
	}
}

// FuzzEmit drives the full synthesize→emit pipeline from fuzzed knob
// settings and loop sizes from one below microprobe.MinLoopSize up.
// Synthesis must succeed exactly when the settings validate and the loop
// size is at least MinLoopSize, and then give a loop of that many static
// instructions closed by the loop branch, whose C and assembly emissions
// never fail and are byte-identical across repeated runs with the same
// inputs (determinism).
func FuzzEmit(f *testing.F) {
	f.Add(int64(1), uint16(120), uint8(4), uint8(16), uint8(8), uint8(16), uint8(4), 0.1, 1.0, uint8(64), uint8(5), uint8(3), uint8(2), uint8(1))
	f.Add(int64(7), uint16(250), uint8(10), uint8(64), uint8(64), uint8(1), uint8(1), 0.9, 0.5, uint8(48), uint8(1), uint8(9), uint8(0), uint8(1))
	f.Add(int64(-3), uint16(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), 2.5, -0.5, uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	// A profile of zero weights only, which settings validation rejects.
	f.Add(int64(5), uint16(60), uint8(3), uint8(8), uint8(8), uint8(2), uint8(2), 0.5, 1.0, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	// Loop size 1, one below the minimum.
	f.Add(int64(2), uint16(0), uint8(3), uint8(8), uint8(8), uint8(2), uint8(2), 0.5, 1.0, uint8(0), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, loopSize uint16, regDist, memKB, stride, temp1, temp2 uint8, branch, duty float64, burst, addW, fpW, memW, bneW uint8) {
		set := fuzzSettings(regDist, memKB, stride, temp1, temp2, branch, duty, burst, addW, fpW, memW, bneW)
		size := int(loopSize)%1000 + microprobe.MinLoopSize - 1
		valid := set.Validate() == nil && size >= microprobe.MinLoopSize
		syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: size, Seed: seed})

		emit := func() ([]byte, []byte) {
			p, err := syn.SynthesizeSettings("fuzz", set)
			if (err == nil) != valid {
				t.Fatalf("loop size %d, settings valid %v: synthesis error %v", size, set.Validate() == nil, err)
			}
			if !valid {
				return nil, nil
			}
			if p.StaticCount() != size {
				t.Fatalf("synthesized %d static instructions, want the loop size %d", p.StaticCount(), size)
			}
			if last := p.Instructions[size-1]; last.Op != isa.BGE || last.Srcs[0] != isa.RegLoop {
				t.Fatalf("last instruction %v %v is not the loop branch", last.Op, last.Srcs)
			}
			var c, asm bytes.Buffer
			if err := p.EmitC(&c); err != nil {
				t.Fatalf("EmitC failed on a valid program: %v", err)
			}
			if err := p.EmitAssembly(&asm); err != nil {
				t.Fatalf("EmitAssembly failed on a valid program: %v", err)
			}
			if c.Len() == 0 || asm.Len() == 0 {
				t.Fatal("emitters produced empty output")
			}
			return c.Bytes(), asm.Bytes()
		}

		c1, asm1 := emit()
		c2, asm2 := emit()
		if !bytes.Equal(c1, c2) {
			t.Fatal("EmitC output differs between identical runs")
		}
		if !bytes.Equal(asm1, asm2) {
			t.Fatal("EmitAssembly output differs between identical runs")
		}
	})
}
