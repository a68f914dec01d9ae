//go:build race

package core

// raceEnabled reports whether the tests were built with the race detector.
const raceEnabled = true
