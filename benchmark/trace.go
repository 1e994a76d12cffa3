package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the ID of the
// enclosing span (0 for a job's root span). Spans recorded by the platform
// and cache wrappers carry parent -1 until finish resolves them to the epoch
// whose interval contains their start (or to the job when no epoch does).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// layer is the module a span's time belongs to: the name's prefix before the
// first dot. A job's root span ("job") holds the time no layer span covers.
func (s span) layer() string {
	if s.Name == "job" {
		return "unattributed"
	}
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) duration() int64 { return s.End - s.Start }

// tracer keeps spans in memory; the benchmark writes them out at exit. It is
// safe for concurrent use (platform wrappers of parallel workers record into
// one tracer).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at converts an absolute time into tracer nanoseconds.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

// add records a span and returns its ID (IDs start at 1).
func (t *tracer) add(job, name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return id
}

// setEnd closes a span opened with add(..., start, start).
func (t *tracer) setEnd(id int, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// finish resolves the parents of wrapper-recorded spans, clamps every child
// into its parent's interval, fills in self times and returns the spans
// grouped by job in recording order.
func (t *tracer) finish() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byJob := make(map[string][]int)
	for i, s := range t.spans {
		byJob[s.Job] = append(byJob[s.Job], i)
	}
	out := make(map[string][]span, len(byJob))
	for job, idx := range byJob {
		root := 0
		var epochs []int
		for _, i := range idx {
			switch t.spans[i].Name {
			case "job":
				root = t.spans[i].ID
			case "tuner.epoch":
				epochs = append(epochs, i)
			}
		}
		sort.Slice(epochs, func(a, b int) bool { return t.spans[epochs[a]].Start < t.spans[epochs[b]].Start })
		for _, i := range idx {
			s := &t.spans[i]
			if s.Parent >= 0 {
				continue
			}
			s.Parent = root
			k := sort.Search(len(epochs), func(k int) bool { return t.spans[epochs[k]].End >= s.Start })
			if k < len(epochs) && t.spans[epochs[k]].Start <= s.Start {
				s.Parent = t.spans[epochs[k]].ID
			}
		}
		spans := make([]span, len(idx))
		for k, i := range idx {
			spans[k] = t.spans[i]
		}
		clampToParents(spans)
		fillSelf(spans)
		out[job] = spans
	}
	return out
}

// index maps span IDs to positions in spans.
func index(spans []span) map[int]int {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	return pos
}

// depths returns each span's nesting depth (0 for a span without a parent
// among spans).
func depths(spans []span, pos map[int]int) []int {
	d := make([]int, len(spans))
	for i := range spans {
		for p, ok := pos[spans[i].Parent]; ok; p, ok = pos[spans[p].Parent] {
			d[i]++
		}
	}
	return d
}

// clampToParents trims each span to its parent's interval, parents first
// (an epoch span is recorded after the evaluations inside it).
func clampToParents(spans []span) {
	pos := index(spans)
	d := depths(spans, pos)
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return d[order[a]] < d[order[b]] })
	for _, i := range order {
		p, ok := pos[spans[i].Parent]
		if !ok {
			continue
		}
		s, par := &spans[i], spans[p]
		s.Start = min(max(s.Start, par.Start), par.End)
		s.End = min(max(s.End, s.Start), par.End)
	}
}

// fillSelf sets every span's self time: its duration minus the part of its
// interval that the union of its children covers.
func fillSelf(spans []span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	for i := range spans {
		spans[i].Self = selfTime(spans[i].Start, spans[i].End, children[spans[i].ID])
	}
}

// selfTime is end-start minus the length of the union of the child
// intervals clipped to [start, end]. Overlapping children — parallel
// workers under one epoch — are counted once.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c[0], start), min(c[1], end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, c := range iv {
		if c[0] > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = c[0], c[1]
			continue
		}
		curB = max(curB, c[1])
	}
	if curB > curA {
		covered += curB - curA
	}
	return end - start - covered
}

// attribute splits a job's wall time over layers: every instant goes to the
// innermost spans active at that instant (spans none of whose children are
// active), shared equally when parallel workers make several of them active
// at once. Without overlap this is each span's self time; with it the
// per-layer totals still sum exactly to the job span's duration.
func attribute(spans []span) map[string]float64 {
	type event struct {
		t     int64
		start bool
		i     int
	}
	pos := index(spans)
	d := depths(spans, pos)
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.End > s.Start { // an empty span holds no time
			events = append(events, event{s.Start, true, i}, event{s.End, false, i})
		}
	}
	// At equal times ends come before starts (back-to-back spans never
	// overlap), parents start before their children and children end before
	// their parents.
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if ea.start != eb.start {
			return !ea.start
		}
		if ea.start {
			return d[ea.i] < d[eb.i]
		}
		return d[ea.i] > d[eb.i]
	})
	active := make([]bool, len(spans))
	activeKids := make([]int, len(spans))
	var inner []int
	drop := func(i int) {
		for k, j := range inner {
			if j == i {
				inner = append(inner[:k], inner[k+1:]...)
				return
			}
		}
	}
	out := make(map[string]float64)
	last := int64(0)
	for _, e := range events {
		if dt := e.t - last; dt > 0 && len(inner) > 0 {
			share := float64(dt) / float64(len(inner))
			for _, i := range inner {
				out[spans[i].layer()] += share
			}
		}
		last = e.t
		p, hasParent := pos[spans[e.i].Parent]
		if e.start {
			active[e.i] = true
			if activeKids[e.i] == 0 {
				inner = append(inner, e.i)
			}
			if hasParent && active[p] {
				activeKids[p]++
				if activeKids[p] == 1 {
					drop(p)
				}
			}
			continue
		}
		active[e.i] = false
		drop(e.i)
		if hasParent && active[p] {
			activeKids[p]--
			if activeKids[p] == 0 {
				inner = append(inner, p)
			}
		}
	}
	return out
}

// traceFile is the JSON document a traced run writes into its trace
// directory.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Layers is each job's wall time split over layers (attribute).
	Layers  map[string]map[string]float64 `json:"layers_ns"`
	Metrics map[string]float64            `json:"metrics"`
	// ReplayRatio is replayed compute time over in-situ evaluation time.
	ReplayRatio float64 `json:"replay_ratio"`
	Spans       []span  `json:"spans"`
}

// writeTrace writes tf, with the spans of every job in ID order, as
// dir/trace.json.
func writeTrace(dir string, tf traceFile, jobs map[string][]span) error {
	for _, spans := range jobs {
		tf.Spans = append(tf.Spans, spans...)
	}
	sort.Slice(tf.Spans, func(a, b int) bool { return tf.Spans[a].ID < tf.Spans[b].ID })
	blob, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), blob, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
