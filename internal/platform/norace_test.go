//go:build !race

package platform

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
