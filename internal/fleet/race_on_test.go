//go:build race

package fleet

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
