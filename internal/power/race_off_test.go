//go:build !race

package power

// raceEnabled reports whether the race detector instruments this build.
// The allocation pins only hold in uninstrumented builds.
const raceEnabled = false
