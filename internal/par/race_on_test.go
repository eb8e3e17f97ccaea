//go:build race

package par

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
