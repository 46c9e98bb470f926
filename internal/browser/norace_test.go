//go:build !race

package browser

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
