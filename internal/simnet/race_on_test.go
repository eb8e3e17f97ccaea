//go:build race

package simnet

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
