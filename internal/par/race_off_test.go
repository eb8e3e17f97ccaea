//go:build !race

package par

// raceEnabled reports whether the race detector instruments this build.
// Under -race sync.Pool drops a share of what it is given (the pooled call
// state), so the allocation budget only holds in uninstrumented builds.
const raceEnabled = false
