//go:build !race

package multicore

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
