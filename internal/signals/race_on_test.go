//go:build race

package signals

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
