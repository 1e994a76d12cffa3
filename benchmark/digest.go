package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"micrograd/internal/cloning"
	"micrograd/internal/experiments"
	"micrograd/internal/metrics"
	"micrograd/internal/stress"
)

// A job's digest covers everything the job's result is judged by: the best
// configuration, the best value's bits, the progression rows and the
// evaluation counts. Anything that depends on how concurrent jobs happened
// to interleave (mgserve's cache hit/miss deltas, a served job's count of
// real simulations) is left out, so the digest is a pure function of the
// job's inputs.

type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digester) int(x int) { d.bits(uint64(x)) }

func (d *digester) float(x float64) { d.bits(math.Float64bits(x)) }

func (d *digester) bits(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d *digester) vec(v metrics.Vector) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.int(len(keys))
	for _, k := range keys {
		d.str(k)
		d.float(v[k])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

func stressDigest(rep stress.Report) string {
	d := newDigester()
	d.str(rep.Config.Key())
	d.float(rep.BestValue)
	d.vec(rep.BestMetrics)
	d.int(len(rep.Progression))
	for _, p := range rep.Progression {
		d.int(p.Epoch)
		d.float(p.BestValue)
		d.int(p.Evaluations)
		d.int(p.CumulativeEvaluations)
	}
	d.int(rep.Evaluations)
	d.int(rep.TunerResult.TotalEvaluations)
	return d.sum()
}

func cloneDigest(rep cloning.Report) string {
	d := newDigester()
	d.str(rep.Config.Key())
	d.vec(rep.Clone)
	d.vec(metrics.Vector(rep.Accuracy))
	d.float(rep.MeanAccuracy)
	d.int(len(rep.TunerResult.Epochs))
	for _, e := range rep.TunerResult.Epochs {
		d.float(e.BestLoss)
		d.int(e.Evaluations)
		d.int(e.CumulativeEvaluations)
	}
	d.int(rep.Evaluations)
	d.int(rep.TunerResult.TotalEvaluations)
	return d.sum()
}

// evaluationsRow labels the rendered report row holding a run's count of
// real simulations, which on mgserve depends on what the shared cache held.
const evaluationsRow = "epochs / evaluations"

// serveDigest digests a served stress job: its rendered report without the
// simulation-count row, plus every progression row (the epoch count the
// dropped row also carried is the number of rows).
func serveDigest(output string, rows []experiments.ProgressRow) string {
	d := newDigester()
	for _, line := range strings.Split(output, "\n") {
		if !strings.Contains(line, evaluationsRow) {
			d.str(line)
		}
	}
	d.int(len(rows))
	for _, r := range rows {
		d.str(r.Series)
		d.float(r.X)
		d.float(r.Y)
	}
	return d.sum()
}

// pins maps workload → seed → job key → digest.
type pins map[string]map[string]map[string]string

// loadPins reads the pinned digests; a missing file holds none.
func loadPins(path string) (pins, error) {
	blob, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return pins{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	p := pins{}
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, fmt.Errorf("decoding pins %s: %w", path, err)
	}
	return p, nil
}

// forSeed returns the pinned digests of one workload and seed (nil if none).
func (p pins) forSeed(workload string, seed int64) map[string]string {
	return p[workload][strconv.FormatInt(seed, 10)]
}

// set replaces the pinned digests of one workload and seed.
func (p pins) set(workload string, seed int64, digests map[string]string) {
	if p[workload] == nil {
		p[workload] = make(map[string]map[string]string)
	}
	p[workload][strconv.FormatInt(seed, 10)] = digests
}

func (p pins) save(path string) error {
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding pins: %w", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing pins: %w", err)
	}
	return nil
}
