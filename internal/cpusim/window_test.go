package cpusim

import (
	"strings"
	"testing"

	"micrograd/internal/isa"
	"micrograd/internal/memsim"
)

// windowedCore returns the small test core with window bookkeeping enabled.
func windowedCore(winCycles int) Config {
	cfg := smallCore()
	cfg.WindowCycles = winCycles
	return cfg
}

func TestWindowConfigValidation(t *testing.T) {
	cfg := windowedCore(-1)
	if err := cfg.Validate(); err == nil {
		t.Error("negative window size should be rejected")
	}
	if err := windowedCore(0).Validate(); err != nil {
		t.Errorf("zero window size (disabled) should validate: %v", err)
	}
	if err := windowedCore(64).Validate(); err != nil {
		t.Errorf("positive window size should validate: %v", err)
	}
}

func TestNoWindowsWhenDisabled(t *testing.T) {
	p := genProgram(t, nil)
	res := runOn(t, smallCore(), smallHier(t), p, 4000)
	if res.Windows != nil {
		t.Errorf("window bookkeeping disabled but got %d windows", len(res.Windows))
	}
}

func TestWindowsCoverRunExactly(t *testing.T) {
	const winCycles = 64
	p := genProgram(t, nil)
	res := runOn(t, windowedCore(winCycles), smallHier(t), p, 4000)
	if len(res.Windows) == 0 {
		t.Fatal("no windows recorded")
	}

	var cycles, instrs uint64
	var classTotals [isa.NumClasses]uint64
	for i, w := range res.Windows {
		if i < len(res.Windows)-1 && w.Cycles != winCycles {
			t.Fatalf("window %d has %d cycles, want %d", i, w.Cycles, winCycles)
		}
		if w.Cycles == 0 || w.Cycles > winCycles {
			t.Fatalf("window %d has impossible length %d", i, w.Cycles)
		}
		cycles += w.Cycles
		instrs += w.Instructions
		for cl, n := range w.ClassCounts {
			classTotals[cl] += n
		}
	}
	if cycles != res.Cycles {
		t.Errorf("window cycles sum to %d, run took %d", cycles, res.Cycles)
	}
	if instrs != res.Instructions {
		t.Errorf("window instructions sum to %d, run executed %d", instrs, res.Instructions)
	}
	for cl, n := range classTotals {
		if want := res.ClassCounts[isa.Class(cl)]; n != want {
			t.Errorf("class %v: windows count %d, run counted %d", isa.Class(cl), n, want)
		}
	}
}

func TestWindowTimingUnaffectedByBookkeeping(t *testing.T) {
	p := genProgram(t, nil)
	plain := runOn(t, smallCore(), smallHier(t), p, 4000)
	windowed := runOn(t, windowedCore(64), smallHier(t), p, 4000)
	if plain.Cycles != windowed.Cycles || plain.Instructions != windowed.Instructions {
		t.Errorf("window bookkeeping changed timing: %d/%d cycles, %d/%d instructions",
			plain.Cycles, windowed.Cycles, plain.Instructions, windowed.Instructions)
	}
	if plain.Branch != windowed.Branch || plain.L1D != windowed.L1D {
		t.Error("window bookkeeping changed cache or branch statistics")
	}
}

func TestWindowsDeterministic(t *testing.T) {
	p := genProgram(t, nil)
	a := runOn(t, windowedCore(64), smallHier(t), p, 4000)
	b := runOn(t, windowedCore(64), smallHier(t), p, 4000)
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs between identical runs", i)
		}
	}
}

func TestWindowEventsMatchAggregates(t *testing.T) {
	// A large-footprint strided kernel produces real L2 and memory traffic;
	// per-instruction window attribution (demand accesses plus the prefetch
	// fills each demand access triggers) must reproduce the aggregate cache
	// statistics exactly — the power trace reconciles against the aggregate
	// energy model on the strength of this identity. The large hierarchy has
	// the next-line prefetcher, so prefetch attribution is exercised too.
	p := genProgram(t, map[string]float64{
		"LD": 10, "SD": 5, "ADD": 3, "MEM_SIZE": 2048, "MEM_STRIDE": 64,
	})
	for _, tc := range []struct {
		name string
		cfg  Config
		hier *memsim.Hierarchy
	}{
		{"small", windowedCore(64), smallHier(t)},
		{"large-prefetch", func() Config { c := largeCore(); c.WindowCycles = 64; return c }(), largeHier(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runOn(t, tc.cfg, tc.hier, p, 8000)
			var l2, mem, misp uint64
			for _, w := range res.Windows {
				l2 += w.L2Accesses
				mem += w.MemAccesses
				misp += w.Mispredicts
			}
			if l2 == 0 || mem == 0 {
				t.Fatalf("strided kernel should hit L2 (%d) and memory (%d) in windows", l2, mem)
			}
			if tc.hier.Config().L2.NextLinePrefetch && res.L2.Prefetches == 0 {
				t.Error("strided kernel on the prefetching hierarchy should trigger prefetch fills")
			}
			if aggL2 := res.L2.Accesses + res.L2.Prefetches; l2 != aggL2 {
				t.Errorf("window L2 accesses %d, aggregate (demand+prefetch) %d", l2, aggL2)
			}
			if mem != res.MemAccesses {
				t.Errorf("window memory accesses %d, aggregate %d", mem, res.MemAccesses)
			}
			if misp != res.Branch.Mispredicts {
				t.Errorf("window mispredicts %d, aggregate %d", misp, res.Branch.Mispredicts)
			}
		})
	}
}

func TestConfigValidatePerFieldMessages(t *testing.T) {
	// Each occupancy limit reports its own message; "window" is reserved for
	// the WindowCycles activity-window terminology.
	base := windowedCore(64)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"rob", func(c *Config) { c.ROBSize = 0 }, "ROB size"},
		{"lsq", func(c *Config) { c.LSQSize = -1 }, "LSQ size"},
		{"rse", func(c *Config) { c.RSESize = 0 }, "RSE size"},
		{"window", func(c *Config) { c.WindowCycles = -1 }, "activity-window length"},
		{"frequency", func(c *Config) { c.FrequencyGHz = 0 }, "frequency"},
		{"width", func(c *Config) { c.FrontEndWidth = 0 }, "front-end width"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("invalid %s config should be rejected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q should name the offending field (%q)", err, tc.want)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base config should validate: %v", err)
	}
}
