//go:build !race

package sim

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
