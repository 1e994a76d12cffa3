package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
	"micrograd/internal/program"
)

// synth generates a program from a knob configuration for trace tests.
func synth(t *testing.T, loop int, values map[string]float64) *program.Program {
	t.Helper()
	space := knobs.DefaultSpace()
	var cfg knobs.Config
	var err error
	if values == nil {
		cfg = space.MidConfig()
	} else {
		cfg, err = space.ConfigFromValues(values)
		if err != nil {
			t.Fatal(err)
		}
	}
	p, err := microprobe.NewSynthesizer(microprobe.Options{LoopSize: loop, Seed: 7}).Synthesize("trace-test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExpandBasicInvariants(t *testing.T) {
	p := synth(t, 100, nil)
	x := Reuse(new(Expander), p, 1)
	for i := 0; i < 1000; i++ {
		var e Entry
		x.NextInto(&e)
		if e.Static != i%p.StaticCount() {
			t.Fatalf("entry %d has static %d, want %d (loop must execute in order)", i, e.Static, i%p.StaticCount())
		}
		if e.PC != p.PC(e.Static) {
			t.Fatalf("entry %d PC mismatch", i)
		}
		in := p.Instructions[e.Static]
		switch {
		case in.IsMemory():
			s := p.Streams[in.Stream]
			if e.Addr < s.Base || e.Addr >= s.Base+uint64(s.FootprintBytes) {
				t.Fatalf("entry %d address %#x outside stream region [%#x,%#x)", i, e.Addr, s.Base, s.Base+uint64(s.FootprintBytes))
			}
		case in.Op.IsBranch():
			if e.Static == p.StaticCount()-1 && !e.Taken {
				t.Fatalf("loop-closing branch not taken at entry %d", i)
			}
		default:
			if e.Addr != 0 {
				t.Fatalf("non-memory entry %d carries an address", i)
			}
		}
	}
}

func TestExpanderDeterminism(t *testing.T) {
	p := synth(t, 150, nil)
	a, b, c := Reuse(new(Expander), p, 42), Reuse(new(Expander), p, 42), Reuse(new(Expander), p, 43)
	same := true
	for i := 0; i < 5000; i++ {
		var ea, eb, ec Entry
		a.NextInto(&ea)
		b.NextInto(&eb)
		c.NextInto(&ec)
		if ea != eb {
			t.Fatalf("entry %d differs with identical seeds", i)
		}
		if ea != ec {
			same = false
		}
	}
	// Re-arming a used expander replays a fresh one's stream.
	fresh := Reuse(new(Expander), p, 42)
	Reuse(c, p, 42)
	for i := 0; i < 5000; i++ {
		var ef, ec Entry
		fresh.NextInto(&ef)
		c.NextInto(&ec)
		if ef != ec {
			t.Fatalf("entry %d of a re-armed expander differs from a fresh one's", i)
		}
	}
	if same {
		t.Log("note: traces identical across seeds (possible if branch randomization is low)")
	}
}

func TestStrideAddressProgression(t *testing.T) {
	p := synth(t, 200, map[string]float64{
		"ADD": 1, "MUL": 1, "FADDD": 1, "FMULD": 1, "BEQ": 1, "BNE": 1,
		"LD": 10, "LW": 10, "SD": 1, "SW": 1,
		knobs.NameMemSize: 2048, knobs.NameMemStride: 64,
		knobs.NameMemTemp1: 1, knobs.NameMemTemp2: 1,
	})
	// Find the cold stream (larger footprint).
	cold := 0
	for i, s := range p.Streams {
		if s.FootprintBytes > p.Streams[cold].FootprintBytes {
			cold = i
		}
	}
	var coldAddrs []uint64
	e := Reuse(new(Expander), p, 3)
	for i := 0; i < 20000 && len(coldAddrs) < 100; i++ {
		var ent Entry
		e.NextInto(&ent)
		in := p.Instructions[ent.Static]
		if in.IsMemory() && int(in.Stream) == cold {
			coldAddrs = append(coldAddrs, ent.Addr)
		}
	}
	if len(coldAddrs) < 10 {
		t.Fatal("not enough cold-stream accesses observed")
	}
	// Consecutive fresh accesses should advance by the stride until wrap.
	strides := 0
	for i := 1; i < len(coldAddrs); i++ {
		if coldAddrs[i] == coldAddrs[i-1]+64 {
			strides++
		}
	}
	if float64(strides) < 0.8*float64(len(coldAddrs)-1) {
		t.Errorf("only %d/%d accesses followed the stride", strides, len(coldAddrs)-1)
	}
}

func TestTemporalReuseReplaysAddresses(t *testing.T) {
	// Stream with Temp1=4, Temp2=4: after 4 fresh accesses, 4 replays follow.
	st := streamState{stream: program.MemoryStream{
		Base: 0x1000, FootprintBytes: 1 << 20, StrideBytes: 64, Temp1: 4, Temp2: 4,
	}}
	var addrs []uint64
	for i := 0; i < 16; i++ {
		addrs = append(addrs, st.next())
	}
	// First 4 fresh, next 4 replay the same 4 addresses.
	for i := 0; i < 4; i++ {
		if addrs[4+i] != addrs[i] {
			t.Errorf("replay %d = %#x, want %#x", i, addrs[4+i], addrs[i])
		}
	}
	// After the replay burst, fresh accesses continue from where they left off.
	if addrs[8] != 0x1000+4*64 {
		t.Errorf("post-replay fresh address %#x, want %#x", addrs[8], uint64(0x1000+4*64))
	}
}

func TestStreamWrapAround(t *testing.T) {
	st := streamState{stream: program.MemoryStream{
		Base: 0x2000, FootprintBytes: 256, StrideBytes: 64, Temp1: 1, Temp2: 1 << 30,
	}}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		a := st.next()
		if a < 0x2000 || a >= 0x2000+256 {
			t.Fatalf("address %#x escaped the footprint", a)
		}
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Errorf("expected 4 distinct addresses (256/64), got %d", len(seen))
	}
}

func TestBranchPatternRandomRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Fully random pattern with 0.5 bias: takens should be near 50%.
	ps := patternState{pattern: program.BranchPattern{RandomRatio: 1, TakenBias: 0.5, Period: 16}}
	taken := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if ps.next(rng) {
			taken++
		}
	}
	frac := float64(taken) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("random pattern taken fraction %.3f, want ~0.5", frac)
	}
	// Fully deterministic pattern: exactly periodic.
	det := patternState{pattern: program.BranchPattern{RandomRatio: 0, TakenBias: 0.5, Period: 8}}
	var dirs []bool
	for i := 0; i < 32; i++ {
		dirs = append(dirs, det.next(rng))
	}
	for i := 0; i < 8; i++ {
		if dirs[i] != dirs[i+8] || dirs[i] != dirs[i+16] {
			t.Error("deterministic pattern is not periodic")
			break
		}
	}
}

// Property: memory addresses always stay within their stream's region, for
// arbitrary knob configurations.
func TestPropertyAddressesInBounds(t *testing.T) {
	space := knobs.DefaultSpace()
	syn := microprobe.NewSynthesizer(microprobe.Options{LoopSize: 80, Seed: 5})
	f := func(seed int64) bool {
		cfg := space.RandomConfig(rand.New(rand.NewSource(seed)))
		p, err := syn.Synthesize("prop", cfg)
		if err != nil {
			return false
		}
		e := Reuse(new(Expander), p, seed)
		for i := 0; i < 2000; i++ {
			var ent Entry
			e.NextInto(&ent)
			in := p.Instructions[ent.Static]
			if in.IsMemory() {
				s := p.Streams[in.Stream]
				if ent.Addr < s.Base || ent.Addr >= s.Base+uint64(s.FootprintBytes) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDynamicMixMatchesStaticMix(t *testing.T) {
	p := synth(t, 120, nil)
	const n = 12000
	dynamic, static := map[isa.Class]int{}, map[isa.Class]int{}
	x := Reuse(new(Expander), p, 2)
	for i := 0; i < n; i++ {
		var e Entry
		x.NextInto(&e)
		dynamic[p.Instructions[e.Static].Class()]++
	}
	for _, in := range p.Instructions {
		static[in.Class()]++
	}
	for c, k := range static {
		dyn := float64(dynamic[c]) / n
		f := float64(k) / float64(p.StaticCount())
		if diff := dyn - f; diff > 0.02 || diff < -0.02 {
			t.Errorf("class %v: dynamic %.3f vs static %.3f", c, dyn, f)
		}
	}
}
