//go:build race

package power

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
