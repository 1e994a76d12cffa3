//go:build race

package powersim

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
