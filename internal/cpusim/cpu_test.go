package cpusim

import (
	"testing"

	"micrograd/internal/branchsim"
	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/memsim"
	"micrograd/internal/microprobe"
	"micrograd/internal/program"
)

// test core configurations roughly following the paper's Table II.
func smallCore() Config {
	return Config{
		Name: "small", FrequencyGHz: 2, FrontEndWidth: 3,
		ROBSize: 40, LSQSize: 16, RSESize: 32,
		NumALU: 3, NumMul: 2, NumFP: 2, NumLSU: 1,
		MispredictPenalty: 10,
	}
}

func largeCore() Config {
	return Config{
		Name: "large", FrequencyGHz: 2, FrontEndWidth: 8,
		ROBSize: 160, LSQSize: 64, RSESize: 128,
		NumALU: 6, NumMul: 4, NumFP: 4, NumLSU: 2,
		MispredictPenalty: 14,
	}
}

func smallHier(t *testing.T) *memsim.Hierarchy {
	t.Helper()
	h, err := memsim.NewHierarchy(memsim.HierarchyConfig{
		L1I:        memsim.CacheConfig{Name: "L1I", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4, HitLatency: 1},
		L1D:        memsim.CacheConfig{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4, HitLatency: 2},
		L2:         memsim.CacheConfig{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8, HitLatency: 12},
		MemLatency: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func largeHier(t *testing.T) *memsim.Hierarchy {
	t.Helper()
	h, err := memsim.NewHierarchy(memsim.HierarchyConfig{
		L1I:        memsim.CacheConfig{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, HitLatency: 1},
		L1D:        memsim.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, HitLatency: 2},
		L2:         memsim.CacheConfig{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16, HitLatency: 14, NextLinePrefetch: true},
		MemLatency: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func pred(t *testing.T, bits int) *branchsim.Predictor {
	t.Helper()
	p, err := branchsim.New(branchsim.Config{Kind: branchsim.GShare, TableBits: bits, HistoryBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// genProgram synthesizes a program from named knob values (nil = mid config).
func genProgram(t *testing.T, values map[string]float64) *program.Program {
	t.Helper()
	space := knobs.DefaultSpace()
	cfg := space.MidConfig()
	if values != nil {
		var err error
		cfg, err = space.ConfigFromValues(values)
		if err != nil {
			t.Fatal(err)
		}
	}
	p, err := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 300, Seed: 11}).Synthesize("cpu-test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runOn(t *testing.T, core Config, hier *memsim.Hierarchy, p *program.Program, n int) Result {
	t.Helper()
	cpu, err := New(core, hier, pred(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run(p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := smallCore().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.FrequencyGHz = 0 },
		func(c *Config) { c.FrontEndWidth = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.LSQSize = 0 },
		func(c *Config) { c.RSESize = 0 },
		func(c *Config) { c.NumALU = 0 },
		func(c *Config) { c.NumFP = 0 },
		func(c *Config) { c.NumLSU = 0 },
		func(c *Config) { c.MispredictPenalty = -1 },
	}
	for i, mutate := range bad {
		c := smallCore()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewRejectsNilComponents(t *testing.T) {
	if _, err := New(smallCore(), nil, nil); err == nil {
		t.Error("nil hierarchy/predictor should be rejected")
	}
	badCfg := smallCore()
	badCfg.FrontEndWidth = 0
	if _, err := New(badCfg, smallHier(t), pred(t, 12)); err == nil {
		t.Error("invalid config should be rejected")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cpu, _ := New(smallCore(), smallHier(t), pred(t, 12))
	if _, err := cpu.Run(program.New("empty"), 100, 1); err == nil {
		t.Error("invalid program should be rejected")
	}
	p := genProgram(t, nil)
	if _, err := cpu.Run(p, 0, 1); err == nil {
		t.Error("zero dynamic instructions should be rejected")
	}
}

func TestResultBasics(t *testing.T) {
	p := genProgram(t, nil)
	res := runOn(t, largeCore(), largeHier(t), p, 20000)
	if res.Instructions != 20000 {
		t.Errorf("Instructions = %d", res.Instructions)
	}
	if res.Cycles == 0 {
		t.Fatal("Cycles = 0")
	}
	ipc := res.IPC()
	if ipc <= 0 || ipc > float64(largeCore().FrontEndWidth) {
		t.Errorf("IPC %v outside (0, width]", ipc)
	}
	if cpi := res.CPI(); cpi <= 0 || cpi*ipc < 0.999 || cpi*ipc > 1.001 {
		t.Errorf("CPI %v inconsistent with IPC %v", cpi, ipc)
	}
	var total uint64
	for _, n := range res.ClassCounts {
		total += n
	}
	if total != res.Instructions {
		t.Errorf("class counts sum to %d, want %d", total, res.Instructions)
	}
	fracSum := 0.0
	for c := range res.ClassCounts {
		fracSum += res.ClassFraction(isa.Class(c))
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Errorf("class fractions sum to %v", fracSum)
	}
	if res.L1I.Accesses == 0 || res.L1D.Accesses == 0 {
		t.Error("cache statistics not collected")
	}
	if res.Branch.Branches == 0 {
		t.Error("branch statistics not collected")
	}
}

func TestLargeCoreFasterThanSmall(t *testing.T) {
	p := genProgram(t, nil)
	small := runOn(t, smallCore(), smallHier(t), p, 20000)
	large := runOn(t, largeCore(), largeHier(t), p, 20000)
	if large.IPC() <= small.IPC() {
		t.Errorf("large core IPC %.3f not above small core IPC %.3f", large.IPC(), small.IPC())
	}
}

func TestDependencyDistanceRaisesIPC(t *testing.T) {
	base := map[string]float64{
		"ADD": 10, "MUL": 1, "FADDD": 1, "FMULD": 1, "BEQ": 1, "BNE": 1, "LD": 1, "LW": 1, "SD": 1, "SW": 1,
		knobs.NameMemSize: 4, knobs.NameBranchPattern: 0.1,
	}
	serial := map[string]float64{}
	parallel := map[string]float64{}
	for k, v := range base {
		serial[k] = v
		parallel[k] = v
	}
	serial[knobs.NameRegDist] = 1
	parallel[knobs.NameRegDist] = 10
	s := runOn(t, largeCore(), largeHier(t), genProgram(t, serial), 20000)
	par := runOn(t, largeCore(), largeHier(t), genProgram(t, parallel), 20000)
	if par.IPC() <= s.IPC() {
		t.Errorf("dep dist 10 IPC %.3f not above dep dist 1 IPC %.3f", par.IPC(), s.IPC())
	}
}

func TestFloatHeavyMixSlowerThanIntegerHeavy(t *testing.T) {
	intHeavy := map[string]float64{
		"ADD": 10, "MUL": 5, "FADDD": 1, "FMULD": 1, "BEQ": 2, "BNE": 2, "LD": 3, "LW": 3, "SD": 2, "SW": 2,
		knobs.NameRegDist: 2, knobs.NameMemSize: 4,
	}
	fpHeavy := map[string]float64{
		"ADD": 1, "MUL": 1, "FADDD": 10, "FMULD": 10, "BEQ": 2, "BNE": 2, "LD": 3, "LW": 3, "SD": 2, "SW": 2,
		knobs.NameRegDist: 2, knobs.NameMemSize: 4,
	}
	i := runOn(t, largeCore(), largeHier(t), genProgram(t, intHeavy), 20000)
	f := runOn(t, largeCore(), largeHier(t), genProgram(t, fpHeavy), 20000)
	if f.IPC() >= i.IPC() {
		t.Errorf("FP-heavy IPC %.3f not below integer-heavy IPC %.3f", f.IPC(), i.IPC())
	}
}

func TestLargeFootprintLowersHitRateAndIPC(t *testing.T) {
	smallFoot := map[string]float64{
		"ADD": 2, "MUL": 1, "FADDD": 1, "FMULD": 1, "BEQ": 1, "BNE": 1, "LD": 8, "LW": 8, "SD": 4, "SW": 4,
		knobs.NameMemSize: 4, knobs.NameMemStride: 8, knobs.NameMemTemp1: 1, knobs.NameRegDist: 6,
	}
	bigFoot := map[string]float64{}
	for k, v := range smallFoot {
		bigFoot[k] = v
	}
	bigFoot[knobs.NameMemSize] = 2048
	bigFoot[knobs.NameMemStride] = 64
	s := runOn(t, smallCore(), smallHier(t), genProgram(t, smallFoot), 30000)
	b := runOn(t, smallCore(), smallHier(t), genProgram(t, bigFoot), 30000)
	if b.L1D.HitRate() >= s.L1D.HitRate() {
		t.Errorf("big footprint L1D hit rate %.3f not below small footprint %.3f",
			b.L1D.HitRate(), s.L1D.HitRate())
	}
	if b.IPC() >= s.IPC() {
		t.Errorf("big footprint IPC %.3f not below small footprint IPC %.3f", b.IPC(), s.IPC())
	}
}

func TestBranchRandomizationRaisesMispredictsAndLowersIPC(t *testing.T) {
	predictable := map[string]float64{
		"ADD": 5, "MUL": 1, "FADDD": 1, "FMULD": 1, "BEQ": 8, "BNE": 8, "LD": 2, "LW": 2, "SD": 1, "SW": 1,
		knobs.NameBranchPattern: 0.1, knobs.NameMemSize: 4, knobs.NameRegDist: 6,
	}
	random := map[string]float64{}
	for k, v := range predictable {
		random[k] = v
	}
	random[knobs.NameBranchPattern] = 1.0
	p := runOn(t, largeCore(), largeHier(t), genProgram(t, predictable), 30000)
	r := runOn(t, largeCore(), largeHier(t), genProgram(t, random), 30000)
	if r.Branch.MispredictRate() <= p.Branch.MispredictRate() {
		t.Errorf("random branches mispredict rate %.3f not above predictable %.3f",
			r.Branch.MispredictRate(), p.Branch.MispredictRate())
	}
	if r.IPC() >= p.IPC() {
		t.Errorf("random branch IPC %.3f not below predictable IPC %.3f", r.IPC(), p.IPC())
	}
}

func TestRunDeterminism(t *testing.T) {
	p := genProgram(t, nil)
	a := runOn(t, largeCore(), largeHier(t), p, 15000)
	b := runOn(t, largeCore(), largeHier(t), p, 15000)
	if a.Cycles != b.Cycles || a.IPC() != b.IPC() || a.L1D != b.L1D || a.Branch != b.Branch {
		t.Error("identical runs produced different results")
	}
}

func TestClassFractionsMatchProgramMix(t *testing.T) {
	p := genProgram(t, nil)
	res := runOn(t, largeCore(), largeHier(t), p, 30000)
	var static [isa.NumClasses]float64
	for _, in := range p.Instructions {
		static[in.Class()] += 1 / float64(p.StaticCount())
	}
	for c := range isa.Class(isa.NumClasses) {
		want := static[c]
		got := res.ClassFraction(c)
		if diff := got - want; diff > 0.03 || diff < -0.03 {
			t.Errorf("class %v: dynamic fraction %.3f vs static %.3f", c, got, want)
		}
	}
}
