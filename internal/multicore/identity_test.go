package multicore

import (
	"fmt"
	"strings"
	"testing"

	"micrograd/internal/platform"
)

// renderedIdentity is the chip identity as EvalIdentity rendered it on
// every call before New cached it: the spec, every core spec by %+v.
func renderedIdentity(spec CoRunSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "corun|supply=%+v|thermal=%+v|offsets=%v", spec.Supply, spec.Thermal, spec.OffsetCycles)
	for i, core := range spec.Cores {
		fmt.Fprintf(&b, "|core%d=%+v", i, core)
	}
	if spec.GridSupply != nil {
		fmt.Fprintf(&b, "|gridsupply=%+v", *spec.GridSupply)
	}
	if spec.GridThermal != nil {
		fmt.Fprintf(&b, "|gridthermal=%+v", *spec.GridThermal)
	}
	if spec.Floorplan != nil {
		fmt.Fprintf(&b, "|floorplan=%+v", *spec.Floorplan)
	}
	return b.String()
}

// TestCachedIdentitiesMatchRendering pins the identities rendered once at
// build time, byte for byte, to the per-call rendering they replace: the
// eval-cache keys, and so every disk cache, stay valid.
func TestCachedIdentitiesMatchRendering(t *testing.T) {
	for _, core := range platform.Cores() {
		sim, err := platform.NewSimPlatform(core)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sim.EvalIdentity(), fmt.Sprintf("sim|%+v", core); got != want {
			t.Fatalf("%s core identity\n got %q\nwant %q", core.Kind, got, want)
		}
	}
	mixed := Homogeneous(platform.Small(), 2)
	mixed.Cores[1] = platform.Large()
	for name, spec := range map[string]CoRunSpec{
		"mixed small+large": mixed,
		"2x2 grid":          Homogeneous(platform.Small(), 4).WithGrid(2, 2, nil),
	} {
		chip, err := New(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := chip.EvalIdentity(), renderedIdentity(spec); got != want {
			t.Fatalf("%s chip identity\n got %q\nwant %q", name, got, want)
		}
	}
}
