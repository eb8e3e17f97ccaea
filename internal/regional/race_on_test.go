//go:build race

package regional

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
