package platform_test

import (
	"fmt"
	"math"
	"testing"

	"micrograd/internal/metrics"
	"micrograd/internal/platform"
	"micrograd/internal/program"
	"micrograd/internal/workloads"
)

// reconcileTolerance is the relative slack between the windowed trace's
// cycle-weighted average power and the aggregate model's dynamic power. The
// two sum identical energy terms in different orders, so only float
// associativity separates them.
const reconcileTolerance = 1e-9

// TestTraceReconcilesWithAggregatePower locks the windowed-energy accounting
// to the aggregate model on both cores across the golden benchmarks:
// attributing prefetch fills to their triggering access (and charging NOPs
// consistently) makes PowerTrace.AvgPowerW() and Model.DynamicPower() two
// summations of the same energy. The Large core exercises the next-line
// prefetcher, which is exactly the term that used to diverge.
func TestTraceReconcilesWithAggregatePower(t *testing.T) {
	for _, spec := range platform.Cores() {
		for _, bench := range workloads.SPECInt2006() {
			t.Run(fmt.Sprintf("%s/%s", bench.Name, spec.Kind), func(t *testing.T) {
				plat, err := platform.NewSimPlatform(spec)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := bench.Program()
				if err != nil {
					t.Fatal(err)
				}
				resp, err := plat.EvaluateRequest(platform.EvalRequest{
					Programs: []*program.Program{prog}, Options: goldenEvalOptions(), Detail: platform.DetailTrace,
				})
				if err != nil {
					t.Fatal(err)
				}
				aggregate := resp.Metrics[metrics.DynamicPowerW]
				traced := resp.Trace.AvgPowerW()
				if aggregate <= 0 || traced <= 0 {
					t.Fatalf("non-positive power: aggregate %v, traced %v", aggregate, traced)
				}
				if diff := math.Abs(traced - aggregate); diff > reconcileTolerance*aggregate {
					t.Errorf("trace average power %v diverges from aggregate %v (diff %v)",
						traced, aggregate, diff)
				}
			})
		}
	}
}
