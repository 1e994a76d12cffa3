package cpusim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micrograd/internal/knobs"
	"micrograd/internal/memsim"
	"micrograd/internal/microprobe"
	"micrograd/internal/program"
)

var update = flag.Bool("update", false, "rewrite the result corpus under testdata")

const corpusFile = "testdata/result_corpus.txt"

// corpusKernels is how many seeded kernels each knob space contributes.
const corpusKernels = 32

// corpusSpaces are the knob spaces the corpus draws its kernels from.
var corpusSpaces = []struct {
	name  string
	space *knobs.Space
}{
	{"default", knobs.DefaultSpace()},
	{"stress", knobs.StressSpace()},
	{"corun", knobs.CoRunStressSpace(2)},
}

// corpusWindows are the window lengths every kernel runs at: none, the
// built-in cores' power-of-two length, and one that takes the division.
var corpusWindows = []int{0, 64, 37}

// corpusInstructions are the dynamic instruction counts; kernel k runs
// corpusInstructions[k%len].
var corpusInstructions = []int{1000, 4000, 12000, 40000}

// resultDigest hashes every field of a result, its windows included.
func resultDigest(r Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", r)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// corpusCase is one simulator of the corpus: a core and a window length.
// Its CPU is reused across every kernel, as a tuning loop reuses it.
type corpusCase struct {
	core string
	win  int
	cpu  *CPU
}

func corpusCases(t *testing.T) []corpusCase {
	t.Helper()
	var cases []corpusCase
	for _, core := range []struct {
		name string
		cfg  Config
		hier func(*testing.T) *memsim.Hierarchy
	}{{"small", smallCore(), smallHier}, {"large", largeCore(), largeHier}} {
		for _, win := range corpusWindows {
			cfg := core.cfg
			cfg.WindowCycles = win
			cpu, err := New(cfg, core.hier(t), pred(t, 12))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, corpusCase{core.name, win, cpu})
		}
	}
	return cases
}

// corpusKernel synthesizes kernel k of space s from a seed of its own: the
// co-run space draws its shared knobs as the stress space does, so the
// spaces must not share seeds.
func corpusKernel(t *testing.T, s, k int) *program.Program {
	t.Helper()
	cfg := corpusSpaces[s].space.RandomConfig(rand.New(rand.NewSource(int64(1000*(s+1) + k))))
	loop := 150
	if k%2 == 1 {
		loop = 500
	}
	p, err := microprobe.NewSynthesizer(microprobe.Options{LoopSize: loop, Seed: int64(k)}).Synthesize("corpus", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestResultCorpus pins the full Result — totals, windows and the echoed
// configuration — of a few hundred seeded runs: kernels of the default,
// stress and co-run spaces, on both cores, without windows and at two
// window lengths, at several instruction counts. Any change to the timing
// model or to the window bookkeeping changes a digest; a change meant to
// keep every result (a faster step, a cheaper entry) must leave the file
// as it is. Re-record an intended change with -update.
//
// After each windowed run, RunTotals on the same CPU must return the digest
// of the CPU without windows; the CPU's next windowed run, on the next
// kernel, is pinned by its own line.
func TestResultCorpus(t *testing.T) {
	cases := corpusCases(t)
	var lines []string
	for s, sp := range corpusSpaces {
		for k := 0; k < corpusKernels; k++ {
			p := corpusKernel(t, s, k)
			n := corpusInstructions[k%len(corpusInstructions)]
			plain := map[string]string{} // per core, the digest without windows
			for _, c := range cases {
				res, err := c.cpu.RunShared(p, n, int64(k))
				if err != nil {
					t.Fatal(err)
				}
				d := resultDigest(res)
				lines = append(lines, fmt.Sprintf("%s/%02d %s w%d n%d %s", sp.name, k, c.core, c.win, n, d))
				if c.win == 0 {
					plain[c.core] = d
					continue
				}
				tot, err := c.cpu.RunTotals(p, n, int64(k))
				if err != nil {
					t.Fatal(err)
				}
				if got := resultDigest(tot); got != plain[c.core] {
					t.Errorf("%s/%02d %s: RunTotals on a CPU with %d-cycle windows gave %s, the CPU without windows %s",
						sp.name, k, c.core, c.win, got, plain[c.core])
				}
			}
		}
	}
	checkCorpus(t, lines)
}

// checkCorpus compares the corpus lines with the recorded file, or
// rewrites it under -update.
func checkCorpus(t *testing.T, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(corpusFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(corpusFile)
	if err != nil {
		t.Fatalf("%v (record the corpus with -update)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("corpus has %d runs, %s records %d", len(lines), corpusFile, len(want))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("run %d:\n got %s\nwant %s", i, lines[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d runs differ from %s", bad, len(lines), corpusFile)
	}
}
