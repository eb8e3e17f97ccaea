//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build; the
// exhaustive formatter sweep strides under it.
const raceEnabled = false
