//go:build race

package scanner_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
