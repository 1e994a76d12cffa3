package tuner

import (
	"sort"
	"strings"
	"testing"
)

func TestByNameBuildsEveryRegisteredTuner(t *testing.T) {
	for _, name := range Names() {
		tun, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if tun == nil || tun.Name() == "" {
			t.Errorf("ByName(%q) built a nameless tuner", name)
		}
	}
}

func TestByNameAliasesAndNormalization(t *testing.T) {
	for _, alias := range []string{"gradient-descent", "genetic-algorithm", "sa", "simulated-annealing",
		"random-search", "brute-force", " CMAES ", "Halving-GD"} {
		if _, err := ByName(alias); err != nil {
			t.Errorf("ByName(%q): %v", alias, err)
		}
	}
}

func TestByNameRejectsUnknownAndNested(t *testing.T) {
	if _, err := ByName("bogus"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown tuner error should list the known names, got %v", err)
	}
	if _, err := ByName("halving-bogus"); err == nil {
		t.Error("halving wrapper around an unknown tuner should be rejected")
	}
	if _, err := ByName("halving-halving-gd"); err == nil {
		t.Error("nested halving wrappers should be rejected")
	}
}

func TestNamesSortedAndAllMatches(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, name := range names {
		tun, err := ByName(name)
		if err != nil {
			t.Fatalf("Names() lists %q, which ByName rejects: %v", name, err)
		}
		if seen[tun.Name()] {
			t.Errorf("Names() lists two names of the mechanism %q", tun.Name())
		}
		seen[tun.Name()] = true
	}
}
