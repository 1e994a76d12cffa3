package microprobe

import (
	"testing"

	"micrograd/internal/isa"
)

func TestDutyCyclePassThrottlesBurstTails(t *testing.T) {
	const loopSize, burst = 200, 48
	duty := 0.5
	set := aluSettings()
	set.DutyCycle = duty
	set.BurstLen = burst
	p, err := NewSynthesizer(Options{LoopSize: loopSize, Seed: 7}).SynthesizeSettings("duty-test", set)
	if err != nil {
		t.Fatal(err)
	}
	active := int(duty * burst)
	throttled := 0
	for i := 0; i < loopSize-1; i++ {
		in := p.Instructions[i]
		if i%burst >= active {
			if in.Op != isa.DIV {
				t.Fatalf("slot %d should be a throttle divide, is %v", i, in.Op)
			}
			if in.Dest != isa.RegTP || in.Srcs[0] != isa.RegTP {
				t.Fatalf("slot %d throttle divide not chained through the reserved register: %+v", i, in)
			}
			throttled++
		}
	}
	if want := 0; throttled == want {
		t.Fatal("no throttle instructions inserted")
	}
	// The loop-closing branch survives.
	if last := p.Instructions[loopSize-1]; !last.Op.Valid() || last.Op != isa.BGE {
		t.Errorf("loop-closing branch clobbered: %v", last.Op)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("duty-cycled program invalid: %v", err)
	}
}

func TestDutyCycleOneIsNoOp(t *testing.T) {
	set := aluSettings()
	set.DutyCycle = 1
	set.BurstLen = 48
	full, err := NewSynthesizer(Options{LoopSize: 200, Seed: 7}).SynthesizeSettings("full", set)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range full.Instructions[:199] {
		if in.Op == isa.DIV {
			t.Fatalf("slot %d is a throttle divide despite duty=1", i)
		}
	}
	if _, ok := full.Meta["duty_cycle"]; ok {
		t.Error("duty=1 should not record duty metadata")
	}
}

func TestDutyCycleMetadata(t *testing.T) {
	set := aluSettings()
	set.DutyCycle = 0.5
	set.BurstLen = 64
	p, err := NewSynthesizer(Options{LoopSize: 200, Seed: 7}).SynthesizeSettings("meta", set)
	if err != nil {
		t.Fatal(err)
	}
	if p.Meta["duty_cycle"] != "0.50" || p.Meta["burst_len"] != "64" {
		t.Errorf("duty metadata missing: %q %q", p.Meta["duty_cycle"], p.Meta["burst_len"])
	}
}

func TestDutyCyclePassErrors(t *testing.T) {
	b := newBuilder("err")
	if err := (DutyCyclePass{Duty: 0.5, BurstLen: 8}).Apply(b); err == nil {
		t.Error("pass on an empty builder should fail")
	}
	if err := b.Apply(SimpleBuildingBlockPass{LoopSize: 20}); err != nil {
		t.Fatal(err)
	}
	if err := (DutyCyclePass{Duty: 0, BurstLen: 8}).Apply(b); err == nil {
		t.Error("zero duty should be rejected")
	}
	if err := (DutyCyclePass{Duty: 1.5, BurstLen: 8}).Apply(b); err == nil {
		t.Error("duty above 1 should be rejected")
	}
	if err := (DutyCyclePass{Duty: 0.5, BurstLen: 1}).Apply(b); err == nil {
		t.Error("burst length below 2 should be rejected")
	}
}

func TestDutyCycleThrottleCountScalesWithIdleFraction(t *testing.T) {
	// More throttling means more long-latency serial divides, so the static
	// mix must show the divides replacing profile instructions.
	count := func(duty float64) int {
		set := aluSettings()
		set.DutyCycle = duty
		set.BurstLen = 48
		p, err := NewSynthesizer(Options{LoopSize: 240, Seed: 7}).SynthesizeSettings("mix", set)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, in := range p.Instructions {
			if in.Op == isa.DIV {
				n++
			}
		}
		return n
	}
	half, most := count(0.5), count(0.9)
	if half <= most {
		t.Errorf("duty 0.5 should throttle more slots (%d) than duty 0.9 (%d)", half, most)
	}
}
