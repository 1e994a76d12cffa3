package experiments

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestRequestEveryFieldReachesTheRun sets one Request field at a time and
// checks that it reaches the run: through RunBudget, or through the
// placement Normalized hands the runners. A field that a refactor drops
// from both fails its case, and a field added without a case fails the
// count.
func TestRequestEveryFieldReachesTheRun(t *testing.T) {
	base := Request{Kind: "perf-virus"}
	cases := []struct {
		field string
		set   func(*Request)
		// budget or placement checks the field's effect.
		budget    func(Budget) bool
		placement func(Request) bool
	}{
		{field: "Kind", set: func(r *Request) { r.Kind = "power-virus" },
			placement: func(r Request) bool { return r.Kind == "power-virus" }},
		{field: "Quick", set: func(r *Request) { r.Quick = true },
			budget: func(b Budget) bool { return reflect.DeepEqual(b, QuickBudget()) }},
		{field: "Instructions", set: func(r *Request) { r.Instructions = 1234 },
			budget: func(b Budget) bool { return b.DynamicInstructions == 1234 }},
		{field: "Epochs", set: func(r *Request) { r.Epochs = 7 },
			budget: func(b Budget) bool { return b.CloneEpochs == 7 && b.StressEpochs == 7 }},
		{field: "Seed", set: func(r *Request) { r.Seed = -9 },
			budget: func(b Budget) bool { return b.Seed == -9 }},
		{field: "Budget", set: func(r *Request) { r.Budget = 40 },
			budget: func(b Budget) bool { return b.MaxEvaluations == 40 }},
		{field: "PowerCapW", set: func(r *Request) { r.PowerCapW = 1.5 },
			budget: func(b Budget) bool { return b.PowerCapW == 1.5 }},
		{field: "Parallel", set: func(r *Request) { r.Parallel = 3 },
			budget: func(b Budget) bool { return b.Parallel == 3 }},
		{field: "Tuner", set: func(r *Request) { r.Tuner = "cmaes" },
			budget: func(b Budget) bool { return b.Tuner == "cmaes" }},
		{field: "Tuners", set: func(r *Request) { r.Tuners = []string{"random"} },
			placement: func(r Request) bool { return slices.Equal(r.Tuners, []string{"random"}) }},
		{field: "Core", set: func(r *Request) { r.Core = "small" },
			placement: func(r Request) bool { return r.Core == "small" }},
		{field: "Cores", set: func(r *Request) { r.Cores = 5 },
			placement: func(r Request) bool { return r.Cores == 5 && r.Rows == 2 && r.Cols == 3 }},
		{field: "Rows", set: func(r *Request) { r.Rows, r.Cols = 3, 1 },
			placement: func(r Request) bool { return r.Rows == 3 && r.Cols == 1 }},
		{field: "Cols", set: func(r *Request) { r.Rows, r.Cols = 1, 3 },
			placement: func(r Request) bool { return r.Rows == 1 && r.Cols == 3 }},
		{field: "Floorplan", set: func(r *Request) { r.Floorplan = "0,0;0,0" },
			placement: func(r Request) bool { return r.Floorplan == "0,0;0,0" }},
		{field: "FreqsGHz", set: func(r *Request) { r.FreqsGHz = []float64{2, 1.2, 1.2} },
			placement: func(r Request) bool { return r.Cores == 3 && len(r.FreqsGHz) == 3 && r.Rows == 2 && r.Cols == 2 }},
		{field: "Benchmarks", set: func(r *Request) { r.Benchmarks = []string{"mcf"} },
			budget: func(b Budget) bool { return slices.Equal(b.Benchmarks, []string{"mcf"}) }},
	}
	typ := reflect.TypeOf(Request{})
	if len(cases) != typ.NumField() {
		t.Fatalf("%d cases for %d Request fields", len(cases), typ.NumField())
	}
	for i, c := range cases {
		if name := typ.Field(i).Name; c.field != name {
			t.Fatalf("case %d is %s, want field %s", i, c.field, name)
		}
		req := base
		c.set(&req)
		if err := req.Validate(); err != nil {
			t.Errorf("%s: %v", c.field, err)
		}
		if c.budget != nil && (!c.budget(req.RunBudget()) || reflect.DeepEqual(req.RunBudget(), base.RunBudget())) {
			t.Errorf("%s: RunBudget %+v misses the field", c.field, req.RunBudget())
		}
		if c.placement != nil && (!c.placement(req.Normalized()) || reflect.DeepEqual(req.Normalized(), base.Normalized())) {
			t.Errorf("%s: Normalized %+v misses the field", c.field, req.Normalized())
		}
	}
}

// TestRequestDefaults pins the zero request: the full budget, serial, on
// two large cores on DefaultGrid(2).
func TestRequestDefaults(t *testing.T) {
	req := Request{Kind: "spatial"}
	if got := req.RunBudget(); !reflect.DeepEqual(got, FullBudget()) {
		t.Errorf("zero request budget %+v, want FullBudget", got)
	}
	want := Request{Kind: "spatial", Core: "large", Cores: 2, Rows: 1, Cols: 2}
	if got := req.Normalized(); !reflect.DeepEqual(got, want) {
		t.Errorf("zero request normalizes to %+v, want %+v", got, want)
	}
	if got := want.Normalized(); !reflect.DeepEqual(got, want) {
		t.Errorf("Normalized is not idempotent: %+v", got)
	}
}

func TestRequestValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		req  Request
		ok   bool
	}{
		{"zero overrides", Request{Kind: "perf-virus"}, true},
		{"negative seed", Request{Kind: "perf-virus", Seed: -7}, true},
		{"no kind", Request{}, true},
		{"spatial floorplan", Request{Kind: "spatial", Cores: 4, Rows: 2, Cols: 2, Floorplan: "0,0;0,0;1,1;1,1"}, true},
		{"floorplan on the default grid", Request{Kind: "spatial", Cores: 4, Floorplan: "0,0;0,1;1,0;1,1"}, true},
		{"dvfs clocks", Request{Kind: "dvfs-noise-virus", FreqsGHz: []float64{2.0, 1.2}}, true},
		{"halving with budget", Request{Kind: "perf-virus", Tuner: "halving-gd", Budget: 40}, true},
		{"tunercmp halving challenger", Request{Kind: "tunercmp", Tuners: []string{"halving-gd"}}, true},
		{"cloning ignores halving", Request{Kind: "cloning", Tuner: "halving-cmaes"}, true},
		{"one core on a single-core kind", Request{Kind: "perf-virus", Cores: 1}, true},

		{"negative instructions", Request{Kind: "perf-virus", Instructions: -1}, false},
		{"negative epochs", Request{Kind: "perf-virus", Epochs: -1}, false},
		{"negative budget", Request{Kind: "perf-virus", Budget: -5}, false},
		{"negative power cap", Request{Kind: "perf-virus", PowerCapW: -1}, false},
		{"NaN power cap", Request{Kind: "perf-virus", PowerCapW: math.NaN()}, false},
		{"negative parallel", Request{Kind: "perf-virus", Parallel: -2}, false},
		{"negative cores", Request{Kind: "corun-noise-virus", Cores: -4}, false},
		{"negative rows", Request{Kind: "spatial", Cores: 4, Rows: -2, Cols: 2}, false},
		{"negative cols", Request{Kind: "spatial", Cores: 4, Rows: 2, Cols: -2}, false},
		{"half-zero grid", Request{Kind: "spatial", Cores: 4, Rows: 3}, false},
		{"zero clock", Request{Kind: "dvfs-noise-virus", FreqsGHz: []float64{2.0, 0}}, false},
		{"negative clock", Request{Kind: "dvfs-noise-virus", FreqsGHz: []float64{-1}}, false},
		{"infinite clock", Request{Kind: "dvfs-noise-virus", FreqsGHz: []float64{2.0, math.Inf(1)}}, false},
		{"NaN clock", Request{Kind: "dvfs-noise-virus", FreqsGHz: []float64{math.NaN(), 2.0}}, false},
		{"floorplan syntax", Request{Kind: "spatial", Cores: 2, Floorplan: "0;1"}, false},
		{"floorplan off the grid", Request{Kind: "spatial", Cores: 4, Rows: 2, Cols: 2, Floorplan: "0,0;0,0;2,2;1,1"}, false},
		{"floorplan core count", Request{Kind: "spatial", Cores: 4, Rows: 2, Cols: 2, Floorplan: "0,0;1,1"}, false},
		{"one core on a chip kind", Request{Kind: "corun-noise-virus", Cores: 1}, false},
		{"one clock on dvfs", Request{Kind: "dvfs-noise-virus", FreqsGHz: []float64{2.0}}, false},
		{"one core tunercmp", Request{Kind: "tunercmp", Cores: 1}, false},
		{"halving without budget", Request{Kind: "power-virus", Tuner: "halving-gd"}, false},
		{"halving without budget, no kind", Request{Tuner: "halving-cmaes"}, false},
		{"unknown kind", Request{Kind: "no-such-virus"}, false},
		{"unknown tuner", Request{Kind: "perf-virus", Tuner: "hillclimb"}, false},
		{"unknown challenger", Request{Kind: "tunercmp", Tuners: []string{"cmaes", ""}}, false},
		{"unknown core", Request{Kind: "perf-virus", Core: "tiny"}, false},
		{"unknown benchmark", Request{Kind: "cloning", Benchmarks: []string{"no-such-benchmark"}}, false},
	} {
		if err := c.req.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
