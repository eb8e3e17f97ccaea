//go:build race

package geodb

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
