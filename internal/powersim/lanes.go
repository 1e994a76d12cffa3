package powersim

import (
	"fmt"
	"math"
	"slices"
)

// droopLanes is how many lumped supply solves WorstDroopsMV integrates in
// one loop. Each solve is a serial, latency-bound recurrence; interleaving
// four independent ones keeps the floating-point pipelines busy.
const droopLanes = 4

// droopLane is one lumped supply solve of WorstDroopsMV: its own windows,
// pass count and integrator state, and where it stands in its replay.
type droopLane struct {
	// out is the lane's index in the caller's slices.
	out int
	// vdd and r are the lane model's supply voltage and series resistance.
	vdd, r float64
	win    []supplyWindow
	passes int
	// pass and n are the pass and window the lane integrates; left is the
	// number of substeps of window n still to run.
	pass, n int
	left    int32
	i, v    float64
	vMin    float64
}

// enter moves the lane on to the next window with substeps to run, doing
// at every window it enters what WorstDroopMV does there: the replay-stop
// check, then recording the entry state. It reports false once the solve
// is over (all passes run, or the replay stop fired).
func (l *droopLane) enter() bool {
	for {
		if l.n == len(l.win) {
			l.n = 0
			l.pass++
		}
		if l.pass >= l.passes {
			return false
		}
		w := &l.win[l.n]
		if l.pass > 0 && sameState(l.i, w.i) && sameState(l.v, w.v) {
			return false
		}
		w.i, w.v = l.i, l.v
		if w.steps > 0 {
			l.left = w.steps
			return true
		}
		l.n++
	}
}

// DroopLanes keeps the buffers of repeated laned droop solves, for a caller
// that solves once per evaluation. The zero value is ready to use. It is
// not safe for concurrent use.
type DroopLanes struct {
	win     []supplyWindow
	pending []droopLane
	out     []float64
}

// WorstDroopsMV returns models[k].WorstDroopMV(traces[k]) for every k, bit
// for bit, integrating up to four of the solves together. Each lane runs
// exactly the expressions of WorstDroopMV, in the same order, with its own
// windows, step counts, pass count and replay stop; the lanes advance
// together by the smallest number of substeps any of them has left in its
// current window, and a lane that finishes hands its slot to the next
// pending one. It panics when the two slices differ in length. The returned
// slice is valid until the next call.
func (l *DroopLanes) WorstDroopsMV(models []SupplyModel, traces []PowerTrace) []float64 {
	if len(models) != len(traces) {
		panic(fmt.Sprintf("powersim: %d supply models for %d traces", len(models), len(traces)))
	}
	out := zeroed(l.out, len(traces))
	l.out = out
	points := 0
	for k, t := range traces {
		if models[k].droopable(t) {
			points += len(t.Points)
		}
	}
	if points == 0 {
		return out
	}
	// One buffer backs every lane's windows; prepareWindows overwrites
	// every entry it hands a lane.
	win := slices.Grow(l.win[:0], points)[:points]
	l.win = win
	pending := l.pending[:0]
	for k, t := range traces {
		s := models[k]
		if !s.droopable(t) {
			continue
		}
		w := win[:len(t.Points):len(t.Points)]
		win = win[len(t.Points):]
		i, v, ok := s.prepareWindows(t, w)
		if !ok {
			continue
		}
		pending = append(pending, droopLane{out: k, vdd: s.VddV, r: s.ResistanceOhm,
			win: w, passes: s.Passes, i: i, v: v, vMin: v})
	}
	l.pending = pending

	var slots [droopLanes]*droopLane
	next := 0
	for {
		// Refill idle slots; a lane whose solve ends on entry settles at once.
		live := 0
		for s := range slots {
			for slots[s] == nil && next < len(pending) {
				ln := &pending[next]
				next++
				if ln.enter() {
					slots[s] = ln
				} else {
					out[ln.out] = (ln.vdd - ln.vMin) * 1000
				}
			}
			if slots[s] != nil {
				live++
			}
		}
		switch live {
		case 0:
			return out
		case 1:
			integrateLane(&slots)
		default:
			integrateLanes(&slots)
		}
		for s, ln := range slots {
			if ln != nil && ln.left == 0 {
				out[ln.out] = (ln.vdd - ln.vMin) * 1000
				slots[s] = nil
			}
		}
	}
}

// integrateLane integrates the one occupied slot to the end of its solve —
// the single-lane loop of WorstDroopMV, for when every other lane is done.
func integrateLane(slots *[droopLanes]*droopLane) {
	var l *droopLane
	for _, l = range slots {
		if l != nil {
			break
		}
	}
	vdd, r := l.vdd, l.r
	i, v, vMin := l.i, l.v, l.vMin
	for {
		w := &l.win[l.n]
		hL, hC, ld := w.hOverL, w.hOverC, w.load
		for k := int32(0); k < l.left; k++ {
			i += hL * (vdd - v - r*i)
			v += hC * (i - ld)
			if v < vMin {
				vMin = v
			}
		}
		l.i, l.v, l.vMin = i, v, vMin
		l.n++
		if !l.enter() {
			l.left = 0
			return
		}
	}
}

// integrateLanes integrates the occupied slots together, window after
// window, until at least one of them ends its solve (its left drops to 0).
// Each round runs the smallest number of substeps any lane has left in its
// current window; the integrator states are local variables across rounds,
// and the per-lane constants stay in arrays (memory operands), which leaves
// the registers to the twelve loop-carried states. An empty slot
// integrates a zero load with zero step constants, which stays at zero and
// is never stored.
func integrateLanes(slots *[droopLanes]*droopLane) {
	var vdd, r, hL, hC, ld, i, v, vMin [droopLanes]float64
	var left [droopLanes]int32
	for s, l := range slots {
		left[s] = math.MaxInt32
		if l == nil {
			continue
		}
		w := &l.win[l.n]
		vdd[s], r[s], hL[s], hC[s], ld[s] = l.vdd, l.r, w.hOverL, w.hOverC, w.load
		i[s], v[s], vMin[s], left[s] = l.i, l.v, l.vMin, l.left
	}
	i0, v0, vMin0 := i[0], v[0], vMin[0]
	i1, v1, vMin1 := i[1], v[1], vMin[1]
	i2, v2, vMin2 := i[2], v[2], vMin[2]
	i3, v3, vMin3 := i[3], v[3], vMin[3]
	for {
		step := min(left[0], left[1], left[2], left[3])
		for k := int32(0); k < step; k++ {
			// The expressions of WorstDroopMV's inner loop, once per lane.
			i0 += hL[0] * (vdd[0] - v0 - r[0]*i0)
			v0 += hC[0] * (i0 - ld[0])
			if v0 < vMin0 {
				vMin0 = v0
			}
			i1 += hL[1] * (vdd[1] - v1 - r[1]*i1)
			v1 += hC[1] * (i1 - ld[1])
			if v1 < vMin1 {
				vMin1 = v1
			}
			i2 += hL[2] * (vdd[2] - v2 - r[2]*i2)
			v2 += hC[2] * (i2 - ld[2])
			if v2 < vMin2 {
				vMin2 = v2
			}
			i3 += hL[3] * (vdd[3] - v3 - r[3]*i3)
			v3 += hC[3] * (i3 - ld[3])
			if v3 < vMin3 {
				vMin3 = v3
			}
		}
		i = [droopLanes]float64{i0, i1, i2, i3}
		v = [droopLanes]float64{v0, v1, v2, v3}
		vMin = [droopLanes]float64{vMin0, vMin1, vMin2, vMin3}
		ended := false
		for s, l := range slots {
			if l == nil {
				continue
			}
			if left[s] -= step; left[s] > 0 {
				continue
			}
			l.i, l.v = i[s], v[s]
			l.n++
			if !l.enter() {
				ended = true
				continue
			}
			w := &l.win[l.n]
			hL[s], hC[s], ld[s], left[s] = w.hOverL, w.hOverC, w.load, l.left
		}
		if ended {
			for s, l := range slots {
				if l != nil {
					l.i, l.v, l.vMin, l.left = i[s], v[s], vMin[s], left[s]
				}
			}
			return
		}
	}
}
