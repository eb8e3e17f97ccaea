//go:build !race

package signals

// raceEnabled reports whether the race detector instruments this build; the
// resume sweeps shrink under it.
const raceEnabled = false
