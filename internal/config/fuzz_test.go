package config

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the framework-configuration decoder:
// it must never panic, and any document it accepts must survive a
// write→re-parse round trip unchanged in validity.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"use_case":"cloning","benchmark":"mcf"}`))
	f.Add([]byte(`{"use_case":"stress","stress_kind":"voltage-noise-virus","core":"small"}`))
	f.Add([]byte(`{"use_case":"stress","stress_metric":"temp_c","maximize":true}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"use_case":"cloning","target_metrics":{"ipc":1.5},"parallel":-3}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
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
