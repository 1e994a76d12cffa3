package platform

import (
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/metrics"
	"micrograd/internal/microprobe"
)

// TestEvalOptionsFidelityScalesWindow pins the fidelity semantics: the
// simulated window shrinks proportionally, never below the floor, never
// grows, and the knob is consumed exactly once.
func TestEvalOptionsFidelityScalesWindow(t *testing.T) {
	cases := []struct {
		name     string
		instr    int
		fidelity float64
		want     int
	}{
		{"quarter", 40000, 0.25, 10000},
		{"floor", 4000, 0.1, MinFidelityInstructions},
		{"full", 40000, 1, 40000},
		{"unset", 40000, 0, 40000},
		{"never-grows", MinFidelityInstructions / 2, 0.5, MinFidelityInstructions / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := EvalOptions{DynamicInstructions: tc.instr, Fidelity: tc.fidelity}.normalized()
			if o.DynamicInstructions != tc.want {
				t.Errorf("DynamicInstructions = %d, want %d", o.DynamicInstructions, tc.want)
			}
			if o.Fidelity != 0 {
				t.Errorf("Fidelity = %g after normalization, want 0 (applied exactly once)", o.Fidelity)
			}
		})
	}
}

// TestSessionFidelityReusesSynthesis checks the multi-fidelity contract end
// to end: a reduced-fidelity request simulates a shorter window but reuses
// the configuration's already-synthesized kernel — fidelity is an
// evaluation-time knob the synthesis memo never sees.
func TestSessionFidelityReusesSynthesis(t *testing.T) {
	plat, err := NewSimPlatform(Small())
	if err != nil {
		t.Fatal(err)
	}
	syn := microprobe.NewCachingSynthesizer(microprobe.Options{LoopSize: 200, Seed: 7})
	session := NewEvalSession(plat, syn)
	cfg := knobs.StressSpace().MidConfig()

	full, err := session.Evaluate(EvalRequest{
		Name: "fidelity", Config: cfg,
		Options: EvalOptions{DynamicInstructions: 8000, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	half, err := session.Evaluate(EvalRequest{
		Name: "fidelity", Config: cfg,
		Options: EvalOptions{DynamicInstructions: 8000, Seed: 7, Fidelity: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}

	fullInstr := full.Metrics[metrics.Instructions]
	halfInstr := half.Metrics[metrics.Instructions]
	if fullInstr < 8000 {
		t.Fatalf("full-fidelity run simulated %.0f instructions, want >= 8000", fullInstr)
	}
	if halfInstr >= fullInstr {
		t.Errorf("fidelity 0.5 simulated %.0f instructions, want fewer than the full run's %.0f", halfInstr, fullInstr)
	}
	if halfInstr < 4000 {
		t.Errorf("fidelity 0.5 simulated %.0f instructions, want >= 4000 (half the window)", halfInstr)
	}

	hits, misses := syn.Stats()
	if misses != 1 {
		t.Errorf("synthesis misses = %d, want 1 (one kernel for the configuration)", misses)
	}
	if hits < 1 {
		t.Errorf("synthesis hits = %d, want >= 1 (the reduced-fidelity request must reuse the kernel)", hits)
	}
}
