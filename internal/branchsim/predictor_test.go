package branchsim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func gshareCfg() Config  { return Config{Kind: GShare, TableBits: 12, HistoryBits: 10} }
func bimodalCfg() Config { return Config{Kind: Bimodal, TableBits: 10} }

func TestConfigValidate(t *testing.T) {
	if err := gshareCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := bimodalCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Kind: Bimodal, TableBits: 2},
		{Kind: Bimodal, TableBits: 30},
		{Kind: GShare, TableBits: 12, HistoryBits: 0},
		{Kind: GShare, TableBits: 12, HistoryBits: 20},
		{Kind: Kind(9), TableBits: 12},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New should fail", i)
		}
	}
}

func TestAlwaysTakenBranchLearned(t *testing.T) {
	for _, cfg := range []Config{gshareCfg(), bimodalCfg()} {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			p.Predict(0x1000, true)
		}
		if rate := p.Stats().MispredictRate(); rate > 0.01 {
			t.Errorf("%v: always-taken branch mispredict rate %v", cfg.Kind, rate)
		}
	}
}

func TestAlternatingPatternGShareBeatsBimodal(t *testing.T) {
	// A short repeating pattern is predictable with history, hard without.
	pattern := []bool{true, true, false, true, false, false, true, false}
	run := func(cfg Config) float64 {
		p, _ := New(cfg)
		for i := 0; i < 20000; i++ {
			p.Predict(0x2000, pattern[i%len(pattern)])
		}
		return p.Stats().MispredictRate()
	}
	g := run(gshareCfg())
	b := run(bimodalCfg())
	if g > 0.05 {
		t.Errorf("gshare mispredict rate %v on periodic pattern, want near 0", g)
	}
	if b <= g {
		t.Errorf("bimodal (%v) should do worse than gshare (%v) on this pattern", b, g)
	}
}

func TestRandomBranchesMispredictHeavily(t *testing.T) {
	p, _ := New(gshareCfg())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		p.Predict(0x3000, rng.Intn(2) == 0)
	}
	rate := p.Stats().MispredictRate()
	if rate < 0.4 || rate > 0.6 {
		t.Errorf("random branches mispredict rate %v, want ~0.5", rate)
	}
}

func TestMispredictRateMonotonicInRandomness(t *testing.T) {
	// As the fraction of random directions grows, the misprediction rate
	// should grow too — this is the mechanism behind the B_PATTERN knob.
	rates := make([]float64, 0, 3)
	for _, ratio := range []float64{0.1, 0.5, 0.9} {
		p, _ := New(gshareCfg())
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 30000; i++ {
			var taken bool
			if rng.Float64() < ratio {
				taken = rng.Intn(2) == 0
			} else {
				taken = i%2 == 0
			}
			p.Predict(0x4000, taken)
		}
		rates = append(rates, p.Stats().MispredictRate())
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Errorf("mispredict rate not monotonic in randomness: %v", rates)
	}
}

func TestResetAndStats(t *testing.T) {
	p, _ := New(bimodalCfg())
	p.Predict(0x100, false)
	p.Reset()
	st := p.Stats()
	if st.Branches != 0 || st.Mispredicts != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
	if st.MispredictRate() != 0 {
		t.Error("empty stats should report 0 mispredict rate")
	}
}

// TestResetAfterRunEqualsNew checks that Reset restores every counter, the
// history and the statistics to exactly what New builds, on a table large
// enough to hold the Large core's predictor.
func TestResetAfterRunEqualsNew(t *testing.T) {
	for _, cfg := range []Config{gshareCfg(), bimodalCfg(), {Kind: GShare, TableBits: 14, HistoryBits: 12}} {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50000; i++ {
			p.Predict(uint64(rng.Intn(1<<16))<<2, rng.Intn(3) == 0)
		}
		p.Reset()
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, fresh) {
			t.Errorf("%v/%d bits: predictor after a run and Reset differs from a fresh New", cfg.Kind, cfg.TableBits)
		}
	}
}

func TestKindString(t *testing.T) {
	if Bimodal.String() != "bimodal" || GShare.String() != "gshare" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Property: mispredicts never exceed branches, and the rate is in [0,1].
func TestPropertyStatsBounded(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		p, err := New(gshareCfg())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)%5000; i++ {
			p.Predict(uint64(rng.Intn(1<<14))<<2, rng.Intn(2) == 0)
		}
		st := p.Stats()
		return st.Mispredicts <= st.Branches && st.MispredictRate() >= 0 && st.MispredictRate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: prediction is deterministic — identical outcome sequences yield
// identical statistics.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		mk := func() Stats {
			p, _ := New(gshareCfg())
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				p.Predict(uint64(rng.Intn(64))<<2, rng.Intn(3) != 0)
			}
			return p.Stats()
		}
		return mk() == mk()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
