package tuner

import (
	"fmt"
	"sort"
	"strings"
)

// registryBruteForceEvaluations is the evaluation cap of a brute-force
// search built by name, enough for the built-in spaces.
const registryBruteForceEvaluations = 4096

// builders maps the canonical tuner names (and their aliases) to default
// constructions. Every mechanism here runs on the shared budget-centric
// engine, which is what makes them interchangeable behind one CLI flag.
var builders = map[string]func() Tuner{
	"gd":                  func() Tuner { return NewGradientDescent() },
	"gradient-descent":    func() Tuner { return NewGradientDescent() },
	"ga":                  func() Tuner { return NewGeneticAlgorithm() },
	"genetic-algorithm":   func() Tuner { return NewGeneticAlgorithm() },
	"sa":                  func() Tuner { return NewSimulatedAnnealing() },
	"annealing":           func() Tuner { return NewSimulatedAnnealing() },
	"simulated-annealing": func() Tuner { return NewSimulatedAnnealing() },
	"random":              func() Tuner { return NewRandomSearch() },
	"random-search":       func() Tuner { return NewRandomSearch() },
	"bruteforce":          func() Tuner { return NewBruteForce(registryBruteForceEvaluations) },
	"brute-force":         func() Tuner { return NewBruteForce(registryBruteForceEvaluations) },
	"cmaes":               func() Tuner { return NewCMAES() },
}

// ByName builds a tuner with default parameters from its CLI name. A
// "halving-" prefix wraps the named inner tuner in the successive-halving
// meta-tuner (e.g. "halving-cmaes", "halving-gd").
func ByName(name string) (Tuner, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if inner, ok := strings.CutPrefix(name, "halving-"); ok {
		in, err := ByName(inner)
		if err != nil {
			return nil, fmt.Errorf("tuner: halving wrapper: %w", err)
		}
		if _, nested := in.(*SuccessiveHalving); nested {
			return nil, fmt.Errorf("tuner: halving wrapper cannot nest")
		}
		return NewSuccessiveHalving(in), nil
	}
	build, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("tuner: unknown tuner %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return build(), nil
}

// Names returns the canonical tuner names accepted by ByName, sorted.
func Names() []string {
	names := []string{"gd", "ga", "annealing", "random", "bruteforce", "cmaes", "halving-gd", "halving-cmaes"}
	sort.Strings(names)
	return names
}
