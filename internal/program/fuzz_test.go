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
// target exercises the validation boundary too.
func fuzzSettings(regDist, memKB, stride, temp1, temp2 uint8, branch, duty float64, burst uint8, addW, fpW, memW uint8) knobs.Settings {
	return knobs.Settings{
		Profile: knobs.NewProfile(map[isa.Opcode]float64{
			isa.ADD:   float64(addW),
			isa.FMULD: float64(fpW),
			isa.LD:    float64(memW),
			isa.BNE:   1,
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
// settings: generation must either fail validation cleanly or produce a
// program whose C and assembly emissions never panic and are byte-identical
// across repeated runs with the same inputs (determinism).
func FuzzEmit(f *testing.F) {
	f.Add(int64(1), uint16(120), uint8(4), uint8(16), uint8(8), uint8(16), uint8(4), 0.1, 1.0, uint8(64), uint8(5), uint8(3), uint8(2))
	f.Add(int64(7), uint16(250), uint8(10), uint8(64), uint8(64), uint8(1), uint8(1), 0.9, 0.5, uint8(48), uint8(1), uint8(9), uint8(0))
	f.Add(int64(-3), uint16(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), 2.5, -0.5, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, loopSize uint16, regDist, memKB, stride, temp1, temp2 uint8, branch, duty float64, burst, addW, fpW, memW uint8) {
		set := fuzzSettings(regDist, memKB, stride, temp1, temp2, branch, duty, burst, addW, fpW, memW)
		size := int(loopSize)%1000 + 2
		syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: size, Seed: seed})

		emit := func() ([]byte, []byte, bool) {
			p, err := syn.SynthesizeSettings("fuzz", set)
			if err != nil {
				return nil, nil, false // invalid settings rejected cleanly
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
			return c.Bytes(), asm.Bytes(), true
		}

		c1, asm1, ok1 := emit()
		c2, asm2, ok2 := emit()
		if ok1 != ok2 {
			t.Fatal("synthesis validity differs between identical runs")
		}
		if !ok1 {
			return
		}
		if !bytes.Equal(c1, c2) {
			t.Fatal("EmitC output differs between identical runs")
		}
		if !bytes.Equal(asm1, asm2) {
			t.Fatal("EmitAssembly output differs between identical runs")
		}
	})
}
