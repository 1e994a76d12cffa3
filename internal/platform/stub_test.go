package platform

import (
	"fmt"

	"micrograd/internal/metrics"
)

// NativeStub is an interface-compatible stand-in for the paper's
// native-hardware back-end: it replays a canned metric vector, so the tests
// can show that the framework boundary supports non-simulated platforms.
type NativeStub struct {
	// Canned is the metric vector returned by every evaluation.
	Canned metrics.Vector
}

// Name implements Platform.
func (NativeStub) Name() string { return "native-stub" }

// NumCores implements Platform.
func (NativeStub) NumCores() int { return 1 }

// EvaluateRequest implements Platform. The stub replays its canned metrics
// for any non-empty kernel; trace and result payloads are not available on
// native hardware.
func (n NativeStub) EvaluateRequest(req EvalRequest) (EvalResponse, error) {
	if len(req.Programs) != 1 {
		return EvalResponse{}, fmt.Errorf("platform: native stub serves exactly one kernel, got %d", len(req.Programs))
	}
	if req.Detail > DetailMetrics {
		return EvalResponse{}, fmt.Errorf("platform: native stub cannot serve %s detail", req.Detail)
	}
	if p := req.Programs[0]; p == nil || p.StaticCount() == 0 {
		return EvalResponse{}, fmt.Errorf("platform: native stub needs a non-empty program")
	}
	if len(n.Canned) == 0 {
		return EvalResponse{}, fmt.Errorf("platform: native stub has no canned metrics configured")
	}
	return EvalResponse{Metrics: n.Canned.Clone()}, nil
}
