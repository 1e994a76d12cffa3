package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// interpolation as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here and by a Python script over
// the same values agree exactly. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		const n = 4
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run noise measure every bound in BENCHMARK.json is held against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailPercentiles are the percentiles tailPercentile considers, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that has at least ten
// samples beyond it, and its value (nearest rank). ok is false when even the
// median has fewer than ten samples above it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	for _, p := range tailPercentiles {
		// The tolerance keeps p*n/100 from rounding up past an exact rank.
		rank := max(int(math.Ceil(p*float64(len(s))/100-1e-9)), 1)
		if len(s)-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
