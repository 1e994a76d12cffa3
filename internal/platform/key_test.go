package platform

import (
	"strings"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
)

func TestEvalIdentityMatchesAcrossInstances(t *testing.T) {
	a, err := NewSimPlatform(Large())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSimPlatform(Large())
	if err != nil {
		t.Fatal(err)
	}
	if a.EvalIdentity() != b.EvalIdentity() {
		t.Fatal("two platforms built from the same spec have different identities")
	}
	small, err := NewSimPlatform(Small())
	if err != nil {
		t.Fatal(err)
	}
	if a.EvalIdentity() == small.EvalIdentity() {
		t.Fatal("small and large cores share an identity")
	}
}

func TestEvalIdentityOfFallsBackToName(t *testing.T) {
	stub := NativeStub{}
	if got := EvalIdentityOf(stub); got != stub.Name() {
		t.Fatalf("EvalIdentityOf(stub) = %q, want %q", got, stub.Name())
	}
}

func TestEvalKeyerSeparatesIdentities(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	synth := microprobe.Options{LoopSize: 200, Seed: 1}
	base := EvalOptions{DynamicInstructions: 4000, Seed: 1, CollectPower: true}

	k := NewEvalKeyer("ident", synth, base)
	if k.Key(cfg, 1) != k.Key(cfg, 1) {
		t.Fatal("keyer is not deterministic")
	}
	if k.Key(cfg, 1) == k.Key(cfg.Step(0, 1), 1) {
		t.Fatal("different configurations share a key")
	}

	// Every identity component must change the key.
	variants := []EvalKeyer{
		NewEvalKeyer("other", synth, base),
		NewEvalKeyer("ident", microprobe.Options{LoopSize: 300, Seed: 1}, base),
		NewEvalKeyer("ident", synth, EvalOptions{DynamicInstructions: 4000, Seed: 2, CollectPower: true}),
		NewEvalKeyer("ident", synth, EvalOptions{DynamicInstructions: 4000, Seed: 1}),
		NewEvalKeyer("ident", synth, EvalOptions{DynamicInstructions: 4000, Seed: 1, CollectPower: true, FrequencyGHz: 1.2}),
		NewEvalKeyer("ident", synth, EvalOptions{DynamicInstructions: 8000, Seed: 1, CollectPower: true}),
	}
	seen := map[string]bool{k.Key(cfg, 1): true}
	for i, kv := range variants {
		key := kv.Key(cfg, 1)
		if seen[key] {
			t.Fatalf("variant %d collides with an earlier identity", i)
		}
		seen[key] = true
	}
}

func TestEvalKeyerFoldsFidelityIntoWindow(t *testing.T) {
	cfg := knobs.StressSpace().MidConfig()
	synth := microprobe.Options{LoopSize: 200, Seed: 1}

	// A large window: fidelity 0.5 selects a genuinely shorter simulation,
	// so the keys must differ.
	k := NewEvalKeyer("ident", synth, EvalOptions{DynamicInstructions: 40000, Seed: 1})
	if k.Key(cfg, 1) == k.Key(cfg, 0.5) {
		t.Fatal("full and half fidelity share a key at a 40000-instruction window")
	}
	if !strings.Contains(k.Key(cfg, 0.5), "|n20000|") {
		t.Fatalf("half-fidelity key %q does not carry the scaled window", k.Key(cfg, 0.5))
	}

	// A small window: both 0.5 and 0.6 floor at MinFidelityInstructions —
	// the same simulation runs, so the keys must be equal.
	k = NewEvalKeyer("ident", synth, EvalOptions{DynamicInstructions: 3000, Seed: 1})
	if k.Key(cfg, 0.5) != k.Key(cfg, 0.6) {
		t.Fatal("fidelities flooring to the same window do not share a key")
	}
}

func TestEffectiveInstructions(t *testing.T) {
	cases := []struct {
		opts EvalOptions
		want int
	}{
		{EvalOptions{}, DefaultDynamicInstructions},
		{EvalOptions{DynamicInstructions: 5000}, 5000},
		{EvalOptions{DynamicInstructions: 40000, Fidelity: 0.25}, 10000},
		{EvalOptions{DynamicInstructions: 3000, Fidelity: 0.25}, MinFidelityInstructions},
		{EvalOptions{DynamicInstructions: 5000, Fidelity: 1}, 5000},
	}
	for i, c := range cases {
		if got := c.opts.EffectiveInstructions(); got != c.want {
			t.Errorf("case %d: EffectiveInstructions = %d, want %d", i, got, c.want)
		}
	}
}

// TestEvalKeyerKeyPinned pins whole key strings, recorded before keys were
// built from a precomputed head, at full fidelity and at two reduced ones
// (the second floored at MinFidelityInstructions): a shared or disk cache
// filled by an earlier build keeps serving its entries.
func TestEvalKeyerKeyPinned(t *testing.T) {
	const prefix = "3f3610ae026e66b442c48e9c0e407074a4706cd58f9f35e26334124c313de899"
	k := NewEvalKeyer("sim|pinned", microprobe.Options{LoopSize: 500, Seed: 3},
		EvalOptions{DynamicInstructions: 40000, Seed: 3, CollectPower: true})
	for _, tc := range []struct {
		cfg      knobs.Config
		cfgKey   string
		fidelity float64
		window   string
	}{
		{knobs.StressSpace().MidConfig(), "5,5,5,5,5,5,5,5,5,5,5", 1, "40000"},
		{knobs.StressSpace().MidConfig(), "5,5,5,5,5,5,5,5,5,5,5", 0.25, "10000"},
		{knobs.StressSpace().MidConfig(), "5,5,5,5,5,5,5,5,5,5,5", 0.01, "2000"},
		{knobs.SpatialStressSpace(4).MidConfig(), "5,5,5,5,5,5,5,5,5,5,5,5,5,12,12,12,12", 1, "40000"},
		{knobs.SpatialStressSpace(4).MidConfig(), "5,5,5,5,5,5,5,5,5,5,5,5,5,12,12,12,12", 0.25, "10000"},
	} {
		want := prefix + "|n" + tc.window + "|" + tc.cfgKey
		if got := k.Key(tc.cfg, tc.fidelity); got != want {
			t.Errorf("Key(%s, %v) = %q, want %q", tc.cfgKey, tc.fidelity, got, want)
		}
	}
}
