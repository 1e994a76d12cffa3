package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := Vector{IPC: 1.5, L1DHitRate: 0.9}
	c := v.Clone()
	c[IPC] = 3
	if v[IPC] != 1.5 {
		t.Error("Clone aliases the original")
	}
	names := v.Names()
	if len(names) != 2 || names[0] != IPC {
		t.Errorf("Names = %v", names)
	}
	if v.String() == "" {
		t.Error("String empty")
	}
}

func TestAccuracyRatioAndRelativeError(t *testing.T) {
	if r := AccuracyRatio(1.0, 1.0); r != 1 {
		t.Errorf("AccuracyRatio(1,1) = %v", r)
	}
	if r := AccuracyRatio(1.1, 1.0); math.Abs(r-1.1) > 1e-9 {
		t.Errorf("AccuracyRatio(1.1,1) = %v", r)
	}
	if r := AccuracyRatio(0, 0); r != 1 {
		t.Errorf("AccuracyRatio(0,0) = %v, want 1", r)
	}
	if r := AccuracyRatio(0.5, 0); !math.IsInf(r, 0) && r < 1000 {
		t.Errorf("AccuracyRatio(0.5,0) = %v, want large", r)
	}
	if e := RelativeError(1.05, 1.0); math.Abs(e-0.05) > 1e-9 {
		t.Errorf("RelativeError = %v", e)
	}
	if e := RelativeError(0, 0); e != 0 {
		t.Errorf("RelativeError(0,0) = %v", e)
	}
}

func TestMeanAccuracy(t *testing.T) {
	want := Vector{IPC: 2.0, L1DHitRate: 0.9}
	got := Vector{IPC: 1.9, L1DHitRate: 0.95}
	acc := MeanAccuracy(got, want, []string{IPC, L1DHitRate})
	// errors: 0.05 and 0.0556 -> mean ~0.0528 -> acc ~0.947
	if acc < 0.93 || acc > 0.96 {
		t.Errorf("MeanAccuracy = %v", acc)
	}
	if MeanAccuracy(got, want, []string{"missing"}) != 1 {
		t.Error("no overlapping metrics should give accuracy 1")
	}
	terrible := Vector{IPC: 100, L1DHitRate: 100}
	if MeanAccuracy(terrible, want, []string{IPC, L1DHitRate}) != 0 {
		t.Error("accuracy should clamp at 0")
	}
}

func TestCloningMetricNames(t *testing.T) {
	names := CloningMetricNames()
	if len(names) != 9 {
		t.Errorf("expected 9 cloning metrics (the paper's radar axes), got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate metric %q", n)
		}
		seen[n] = true
	}
	if !seen[IPC] || !seen[BranchMispredictRate] {
		t.Error("cloning metrics must include IPC and mispredictions")
	}
}

func TestCloneLossZeroAtTarget(t *testing.T) {
	target := Vector{IPC: 1.5, FracLoad: 0.3, L1DHitRate: 0.92, BranchMispredictRate: 0.04,
		FracInteger: 0.4, FracStore: 0.1, FracBranch: 0.2, L1IHitRate: 0.99, L2HitRate: 0.7}
	loss := CloneLoss{Target: target}
	if l := loss.Loss(target.Clone()); l > 1e-9 {
		t.Errorf("loss at target = %v, want 0", l)
	}
	if loss.Name() == "" || len(loss.metricNames()) != 9 {
		t.Error("loss metadata wrong")
	}
}

func TestCloneLossIncreasesWithError(t *testing.T) {
	target := Vector{IPC: 2.0, L1DHitRate: 0.9}
	loss := CloneLoss{Target: target}
	near := Vector{IPC: 2.1, L1DHitRate: 0.91}
	far := Vector{IPC: 3.5, L1DHitRate: 0.5}
	if loss.Loss(near) >= loss.Loss(far) {
		t.Error("loss should grow with distance from target")
	}
	if loss.Loss(near) <= 0 {
		t.Error("non-exact match should have positive loss")
	}
}

func TestCloneLossMissingMetricPenalty(t *testing.T) {
	target := Vector{IPC: 2.0, L1DHitRate: 0.9}
	loss := CloneLoss{Target: target}
	missing := Vector{IPC: 2.0}
	if loss.Loss(missing) < 5 {
		t.Error("missing measured metric should incur a large penalty")
	}
}

// TestCloneLossWeights pins that every targeted metric weighs the same: the
// loss is the plain sum of the squared log ratios, bit for bit.
func TestCloneLossWeights(t *testing.T) {
	target := Vector{IPC: 2.0, L1DHitRate: 0.9, FracLoad: 0.25}
	measured := Vector{IPC: 2.4, L1DHitRate: 0.81, FracLoad: 0.3}
	want := 0.0
	for _, name := range target.Names() {
		lr := math.Log(AccuracyRatio(measured[name], target[name]))
		want += lr * lr
	}
	if got := (CloneLoss{Target: target}).Loss(measured); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("loss = %v, want the unweighted sum of squared log ratios %v", got, want)
	}
}

func TestCloneLossSymmetricInRatio(t *testing.T) {
	target := Vector{IPC: 1.0}
	loss := CloneLoss{Target: target}
	over := loss.Loss(Vector{IPC: 1.25})
	under := loss.Loss(Vector{IPC: 0.8})
	if math.Abs(over-under) > 1e-9 {
		t.Errorf("log loss should be symmetric in ratio: over=%v under=%v", over, under)
	}
}

func TestStressLoss(t *testing.T) {
	minIPC := StressLoss{Metric: IPC}
	maxPow := StressLoss{Metric: DynamicPowerW, Maximize: true}
	if minIPC.Loss(Vector{IPC: 2}) != 2 {
		t.Error("minimize loss should equal the metric")
	}
	if maxPow.Loss(Vector{DynamicPowerW: 1.8}) != -1.8 {
		t.Error("maximize loss should be the negated metric")
	}
	if !math.IsInf(minIPC.Loss(Vector{}), 1) {
		t.Error("missing metric should give +Inf loss")
	}
	if minIPC.Name() == maxPow.Name() {
		t.Error("names should distinguish direction and metric")
	}
}

// Property: CloneLoss is non-negative and zero only when every targeted
// metric matches exactly.
func TestPropertyCloneLossNonNegative(t *testing.T) {
	f := func(a, b float64) bool {
		ga := math.Abs(a)
		gb := math.Abs(b)
		if math.IsNaN(ga) || math.IsInf(ga, 0) || math.IsNaN(gb) || math.IsInf(gb, 0) {
			return true
		}
		target := Vector{IPC: 1 + math.Mod(ga, 3)}
		measured := Vector{IPC: 1 + math.Mod(gb, 3)}
		loss := CloneLoss{Target: target}
		return loss.Loss(measured) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AccuracyRatio of a value against itself is 1 for any positive
// value.
func TestPropertyAccuracyRatioIdentity(t *testing.T) {
	f := func(x float64) bool {
		v := math.Abs(x)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 1e-3 {
			return true
		}
		return math.Abs(AccuracyRatio(v, v)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
