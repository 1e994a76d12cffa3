package config

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"micrograd/internal/platform"
	"micrograd/internal/stress"
)

// FuzzParse feeds arbitrary bytes to the framework-configuration decoder:
// it must never panic, any document it accepts must survive a write→re-parse
// round trip unchanged in validity, and an accepted stress configuration
// must stress a metric one core measures.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"use_case":"cloning","benchmark":"mcf"}`))
	f.Add([]byte(`{"use_case":"stress","stress_kind":"voltage-noise-virus","core":"small"}`))
	f.Add([]byte(`{"use_case":"stress","stress_metric":"temp_c","maximize":true}`))
	f.Add([]byte(`{"use_case":"stress","stress_kind":"my-virus","stress_metric":"ipcc"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"use_case":"cloning","target_metrics":{"ipc":1.5},"parallel":-3}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		if cfg.UseCase == UseCaseStress {
			if cfg.StressMetric != "" && !slices.Contains(platform.CoreMetrics, cfg.StressMetric) {
				t.Fatalf("accepted stress_metric %q, which one core does not measure", cfg.StressMetric)
			}
			if kind, err := stress.KindByName(cfg.StressKind); cfg.StressMetric == "" && (err != nil || kind.MultiCore()) {
				t.Fatalf("accepted stress_kind %q without a metric one core measures", cfg.StressKind)
			}
		}
		// Accepted configurations must re-serialize and re-parse.
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config failed to serialize: %v", err)
		}
		again, err := Parse(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round-tripped config rejected: %v\n%s", err, out)
		}
		if again.UseCase != cfg.UseCase || again.Core != cfg.Core || again.Seed != cfg.Seed {
			t.Fatal("round trip changed the configuration")
		}
	})
}
